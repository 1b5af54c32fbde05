"""Unit tests for the comparison baselines (repro.baselines)."""

import pytest

from repro.axml.document import AXMLDocument
from repro.axml.materialize import MaterializationEngine
from repro.outcome import Outcome
from repro.baselines.snapshot_rollback import SnapshotRollback
from repro.baselines.static_compensation import CoverageReport, StaticCompensator
from repro.query.parser import parse_action, parse_select
from repro.query.update import apply_action
from repro.xmlstore.parser import parse_document
from repro.xmlstore.serializer import canonical


class TestStaticCompensator:
    ATP = (
        "<ATPList><player><name><lastname>Nadal</lastname></name>"
        "<citizenship>Spanish</citizenship></player></ATPList>"
    )

    def test_fresh_handler_restores_replace(self):
        doc = parse_document(self.ATP, name="ATPList")
        compensator = StaticCompensator()
        action = parse_action(
            '<action type="replace"><data><citizenship>USA</citizenship></data>'
            "<location>Select p/citizenship from p in ATPList//player;"
            "</location></action>"
        )
        handler_xml = StaticCompensator.derive_handler(action, doc)
        compensator.define("op1", handler_xml)
        pre = doc.clone_tree()
        apply_action(doc, action)
        report = CoverageReport()
        compensator.compensate("op1", doc, pre, report)
        assert report.covered == 1
        assert report.restored_exactly == 1

    def test_stale_handler_leaves_wrong_state(self):
        doc = parse_document(self.ATP, name="ATPList")
        compensator = StaticCompensator()
        action = parse_action(
            '<action type="replace"><data><citizenship>USA</citizenship></data>'
            "<location>Select p/citizenship from p in ATPList//player;"
            "</location></action>"
        )
        # Handler derived now (citizenship=Spanish) ...
        compensator.define("op1", StaticCompensator.derive_handler(action, doc))
        # ... but the document changes before the operation runs.
        apply_action(
            doc,
            parse_action(
                '<action type="replace"><data><citizenship>French</citizenship>'
                "</data><location>Select p/citizenship from p in ATPList//player;"
                "</location></action>"
            ),
        )
        pre = doc.clone_tree()  # now French
        apply_action(doc, action)  # -> USA
        report = CoverageReport()
        compensator.compensate("op1", doc, pre, report)
        # The stale handler restored Spanish, not French.
        assert report.wrong_state == 1
        assert "Spanish" in canonical(doc)

    def test_query_has_no_handler(self):
        doc = parse_document(self.ATP, name="ATPList")
        action = parse_action(
            '<action type="query"><location>Select p from p in ATPList//player;'
            "</location></action>"
        )
        assert StaticCompensator.derive_handler(action, doc) is None

    def test_uncovered_query_with_materialization_is_wrong(self):
        axml = AXMLDocument.from_xml(
            "<D><item><axml:sc mode='replace' methodName='m'>"
            "<stock>1</stock></axml:sc></item></D>",
            name="D",
        )
        pre = axml.document.clone_tree()
        q = parse_select("Select i/stock from i in D//item;")
        MaterializationEngine(
            axml, lambda c, p: Outcome(["<stock>2</stock>"])
        ).materialize_for_query(q)
        report = CoverageReport()
        StaticCompensator().compensate("q1", axml.document, pre, report)
        assert report.uncovered == 1
        assert report.wrong_state == 1

    def test_coverage_rates(self):
        report = CoverageReport(operations=4, covered=2, uncovered=2,
                                restored_exactly=1, wrong_state=3)
        assert report.coverage_rate == 0.5
        assert report.correctness_rate == 0.25


class TestSnapshotRollback:
    def _doc(self):
        return AXMLDocument.from_xml("<S><a>1</a><b>2</b></S>", name="S")

    def test_rollback_restores(self):
        doc = self._doc()
        pre = canonical(doc.document)
        rollback = SnapshotRollback()
        rollback.guard("T1", doc)
        apply_action(
            doc.document,
            parse_action(
                '<action type="delete"><location>Select s/a from s in S;'
                "</location></action>"
            ),
        )
        assert rollback.rollback("T1", doc)
        assert canonical(doc.document) == pre

    def test_guard_idempotent(self):
        doc = self._doc()
        rollback = SnapshotRollback()
        rollback.guard("T1", doc)
        rollback.guard("T1", doc)
        assert rollback.stats.snapshots_taken == 1

    def test_rollback_without_snapshot(self):
        assert not SnapshotRollback().rollback("T1", self._doc())

    def test_cost_scales_with_document_size(self):
        small, big = SnapshotRollback(), SnapshotRollback()
        small.guard("T", self._doc())
        big_doc = AXMLDocument.from_xml(
            "<S>" + "<x>y</x>" * 200 + "</S>", name="S"
        )
        big.guard("T", big_doc)
        assert big.stats.approx_bytes > 10 * small.stats.approx_bytes

    def test_node_ids_survive_rollback(self):
        doc = self._doc()
        a_id = doc.document.root.child_elements()[0].node_id
        rollback = SnapshotRollback()
        rollback.guard("T1", doc)
        apply_action(
            doc.document,
            parse_action(
                '<action type="delete"><location>Select s/a from s in S;'
                "</location></action>"
            ),
        )
        rollback.rollback("T1", doc)
        assert doc.document.get_node(a_id).is_attached()
