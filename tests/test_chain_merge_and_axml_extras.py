"""Tests for chain merging and the AXML storage-call extras
(resultNames, fetchOnce) added for distributed fragments."""

import pytest

from repro.axml.document import AXMLDocument
from repro.axml.materialize import MaterializationEngine
from repro.outcome import Outcome
from repro.axml.service_call import ServiceCall
from repro.p2p.chain import PeerChain
from repro.query.parser import parse_select
from repro.xmlstore.parser import parse_document


class TestChainMerge:
    def test_merge_adds_deeper_edges(self):
        mine = PeerChain.from_text("[A -> B]")
        theirs = PeerChain.from_text("[A -> B -> [C] || [D]]")
        added = mine.merge(theirs)
        assert added == 2
        assert mine.children_of("B") == ["C", "D"]

    def test_merge_idempotent(self):
        mine = PeerChain.from_text("[A -> B -> C]")
        assert mine.merge(PeerChain.from_text("[A -> B -> C]")) == 0

    def test_merge_skips_unknown_parents(self):
        mine = PeerChain.from_text("[A]")
        theirs = PeerChain.from_text("[X -> Y]")
        assert mine.merge(theirs) == 0
        assert not mine.contains("Y")

    def test_merge_preserves_super_flags(self):
        mine = PeerChain.from_text("[A -> B]")
        theirs = PeerChain.from_text("[A -> B -> C*]")
        mine.merge(theirs)
        assert mine.to_text() == "[A -> B -> C*]"

    def test_merge_partial_overlap(self):
        mine = PeerChain.from_text("[A -> [B] || [C]]")
        theirs = PeerChain.from_text("[A -> B -> B1]")
        assert mine.merge(theirs) == 1
        assert mine.children_of("B") == ["B1"]
        assert mine.children_of("A") == ["B", "C"]


class TestResultNames:
    def test_singular_fallback(self):
        doc = parse_document("<D><axml:sc methodName='m'><stock>1</stock></axml:sc></D>")
        call = ServiceCall(doc.root.child_elements()[0])
        assert call.result_names == ["stock"]

    def test_declared_plural(self):
        doc = parse_document(
            "<D><axml:sc methodName='m' resultNames='a b c'/></D>"
        )
        call = ServiceCall(doc.root.child_elements()[0])
        assert call.result_names == ["a", "b", "c"]

    def test_empty_when_unknown(self):
        doc = parse_document("<D><axml:sc methodName='m'/></D>")
        call = ServiceCall(doc.root.child_elements()[0])
        assert call.result_names == []


class TestFetchOnce:
    def _doc(self, with_results: bool):
        results = "<frag>old</frag>" if with_results else ""
        return AXMLDocument.from_xml(
            f"<D><axml:sc methodName='get' mode='replace' fetchOnce='true' "
            f"resultName='frag'>{results}</axml:sc></D>",
            name="D",
        )

    def test_skipped_when_results_present(self):
        doc = self._doc(with_results=True)
        calls = []

        def resolver(call, params):
            calls.append(call.method_name)
            return Outcome(["<frag>new</frag>"])

        report = MaterializationEngine(doc, resolver).materialize_all()
        assert calls == []
        assert report.invocation_count == 0
        assert "old" in doc.to_xml()

    def test_fetched_when_empty(self):
        doc = self._doc(with_results=False)
        report = MaterializationEngine(
            doc, lambda c, p: Outcome(["<frag>new</frag>"])
        ).materialize_all()
        assert report.invocation_count == 1
        assert "new" in doc.to_xml()

    def test_ordinary_calls_always_refresh(self):
        doc = AXMLDocument.from_xml(
            "<D><axml:sc methodName='get' mode='replace'>"
            "<frag>old</frag></axml:sc></D>",
            name="D",
        )
        report = MaterializationEngine(
            doc, lambda c, p: Outcome(["<frag>new</frag>"])
        ).materialize_all()
        assert report.invocation_count == 1
        assert "new" in doc.to_xml()


class TestLazyScope:
    """Instance-level lazy materialization (the E8 refinement)."""

    DOC = (
        "<Cat>"
        "<book><axml:sc methodName='s1' resultName='stock'>"
        "<stock>1</stock></axml:sc></book>"
        "<report><axml:sc methodName='s2' resultName='stock'>"
        "<stock>2</stock></axml:sc></report>"
        "</Cat>"
    )

    def test_only_bound_items_materialize(self):
        doc = AXMLDocument.from_xml(self.DOC, name="Cat")
        q = parse_select("Select b/stock from b in Cat//book;")
        assert [c.method_name for c in doc.calls_for_query(q)] == ["s1"]

    def test_source_producing_calls_always_selected(self):
        doc = AXMLDocument.from_xml(
            "<Lib><axml:sc methodName='frag' resultNames='book title'/></Lib>",
            name="Lib",
        )
        q = parse_select("Select b/title from b in Lib//book;")
        assert [c.method_name for c in doc.calls_for_query(q)] == ["frag"]

    def test_id_source_scope(self):
        doc = AXMLDocument.from_xml(self.DOC, name="Cat")
        book = doc.document.root.child_elements()[0]
        q = parse_select(f"Select b/stock from b in id({book.node_id!r}@Cat);")
        assert [c.method_name for c in doc.calls_for_query(q)] == ["s1"]
