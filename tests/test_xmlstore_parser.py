"""Unit tests for the from-scratch XML parser and serializer."""

import gc
import sys

import pytest

from repro.axml.document import AXMLDocument
from repro.errors import XmlParseError, XmlStructureError
from repro.p2p.distribution import distribute_fragment
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.xmlstore.nodes import Document, NodeId
from repro.xmlstore.parser import parse_document, parse_fragment
from repro.xmlstore.serializer import (
    canonical,
    pretty,
    rebind_ids,
    serialize,
)


class TestParseBasics:
    def test_minimal(self):
        doc = parse_document("<r/>")
        assert doc.root.name.local == "r"
        assert doc.root.children == []

    def test_prolog_ignored(self):
        doc = parse_document('<?xml version="1.0" encoding="UTF-8"?><r/>')
        assert doc.root.name.local == "r"

    def test_attributes_both_quotes(self):
        doc = parse_document("""<r a="1" b='2'/>""")
        assert doc.root.attributes == {"a": "1", "b": "2"}

    def test_nested_elements(self):
        doc = parse_document("<r><a><b/></a><c/></r>")
        assert [e.name.local for e in doc.root.iter_elements()] == ["r", "a", "b", "c"]

    def test_text_content(self):
        doc = parse_document("<r>hello</r>")
        assert doc.root.text_content() == "hello"

    def test_whitespace_only_text_dropped(self):
        doc = parse_document("<r>\n  <a/>\n</r>")
        assert len(doc.root.children) == 1

    def test_mixed_content_trimmed(self):
        doc = parse_document("<r> hi <a/></r>")
        assert doc.root.children[0].value == "hi"

    def test_prefixed_names(self):
        doc = parse_document("<axml:sc methodName='m'/>")
        assert doc.root.name.prefix == "axml"
        assert doc.root.name.local == "sc"

    def test_comments_skipped(self):
        doc = parse_document("<r><!-- note --><a/><!-- end --></r>")
        assert len(doc.root.children) == 1

    def test_cdata(self):
        doc = parse_document("<r><![CDATA[a < b & c]]></r>")
        assert doc.root.text_content() == "a < b & c"

    def test_doctype_tolerated(self):
        doc = parse_document("<!DOCTYPE r><r/>")
        assert doc.root.name.local == "r"

    def test_processing_instruction_skipped(self):
        doc = parse_document("<r><?pi data?><a/></r>")
        assert len(doc.root.children) == 1


class TestEntities:
    @pytest.mark.parametrize(
        "entity,expected",
        [("&amp;", "&"), ("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'), ("&apos;", "'")],
    )
    def test_predefined(self, entity, expected):
        doc = parse_document(f"<r>{entity}</r>")
        assert doc.root.text_content() == expected

    def test_decimal_charref(self):
        assert parse_document("<r>&#65;</r>").root.text_content() == "A"

    def test_hex_charref(self):
        assert parse_document("<r>&#x41;</r>").root.text_content() == "A"

    def test_entity_in_attribute(self):
        doc = parse_document('<r a="x&amp;y"/>')
        assert doc.root.attributes["a"] == "x&y"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XmlParseError):
            parse_document("<r>&nope;</r>")

    def test_unterminated_entity_rejected(self):
        with pytest.raises(XmlParseError):
            parse_document("<r>&amp</r>")


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "<r>",
            "<r></s>",
            "<r><a></r></a>",
            "<r a=1/>",
            "<r 'x'/>",
            "<r/><extra/>",
            "<r a='1' a='2'/>",
            "<1bad/>",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(XmlParseError):
            parse_document(text)

    def test_error_carries_position(self):
        with pytest.raises(XmlParseError) as exc:
            parse_document("<r>\n<bad")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "text,message,line,column",
        [
            # chr() overflow used to escape as OverflowError; a surrogate was
            # accepted and crashed the WAL's utf-8 encode at append time.
            ("<a>&#99999999999999999999;</a>", "bad character reference &#99999999999999999999;", 1, 27),
            ("<a>\n&#xFFFFFFFFFFFFFFFFFFFF;</a>", "bad character reference &#xFFFFFFFFFFFFFFFFFFFF;", 2, 25),
            ("<a>&#xD800;</a>", "bad character reference &#xD800;", 1, 12),
            ("<a b='&#57343;'/>", "bad character reference &#57343;", 1, 16),
            # An empty prefix or local part used to reach QName.parse and die
            # there as a bare ValueError (or, on attributes, pass unnoticed).
            ("<:a/>", "invalid XML name ':a'", 1, 4),
            ("<a:/>", "invalid XML name 'a:'", 1, 4),
            ("<r>\n  <a :x='1'/></r>", "invalid XML name ':x'", 2, 8),
            ("<r x:='1'/>", "invalid XML name 'x:'", 1, 6),
            ("<r></:r>", "invalid XML name ':r'", 1, 8),
        ],
    )
    def test_typed_error_with_position(self, text, message, line, column):
        with pytest.raises(XmlParseError) as exc:
            parse_document(text)
        assert str(exc.value) == f"{message} (line {line}, column {column})"
        assert (exc.value.line, exc.value.column) == (line, column)

    def test_accepted_character_references_encode(self):
        doc = parse_document("<r>&#xD7FF;&#xE000;&#x10FFFF;</r>")
        assert doc.root.text_content().encode("utf-8")


class TestDeepNesting:
    """Open elements sit on an explicit stack: depth is bounded by memory,
    not by the recursion limit — in the parser, the serializer, the one
    copier and the subtree measures alike."""

    @pytest.fixture(scope="class")
    def deep(self):
        doc = Document("deep")
        node = doc.create_root("r")
        for level in range(3000):
            node = node.new_element("e", {"level": str(level)})
        node.new_text("leaf")
        return doc

    def test_deeper_than_the_recursion_limit(self):
        depth = 5000
        assert depth > sys.getrecursionlimit()
        doc = parse_document("<a>" * depth + "</a>" * depth)
        assert sum(1 for _ in doc.iter_elements()) == depth

    def test_deep_document_reads_back(self, deep):
        text = serialize(deep)
        assert serialize(deep.clone_tree()) == text
        assert serialize(parse_document(text)) == text

    def test_deep_subtree_copies_into_another_document(self, deep):
        other = Document("other")
        other.root = deep.root.clone_into(other)
        assert serialize(other) == serialize(deep)
        assert other.root._logical_count == deep.root._logical_count == 3001

    def test_deep_document_has_a_size(self, deep):
        assert deep.size() == 3002

    def test_deep_document_has_a_repr(self, deep):
        assert repr(deep) == f"Document('deep', serial=d{deep.serial}, size=3002)"

    def test_deep_text_content(self, deep):
        assert deep.root.text_content() == "leaf"

    def test_deep_fragment_distributes(self, deep):
        network = SimNetwork()
        owner, target = AXMLPeer("AP1", network), AXMLPeer("AP2", network)
        owner.host_document(AXMLDocument(deep.clone_tree(), name="deep"))
        placement = distribute_fragment(owner, "deep", "deep/e", target)
        fragment = target.get_axml_document(placement.fragment_document).document
        assert fragment.size() == 3001
        assert fragment.root.text_content() == "leaf"


def _scan_fixture(scale: int) -> str:
    """One document shape whose text runs and attribute values are
    *scale* times longer (its references and tokens are not)."""
    pad = "lorem ipsum " * scale
    item = (
        f'<item sku="{pad}" note=\'{pad}&amp;{pad}\'>{pad}&lt;{pad}<!-- {pad} -->'
        f"<![CDATA[{pad}]]><?pi {pad}?><ns:leaf>\n{pad}\n</ns:leaf ></item>"
    )
    return f'<?xml version="1.0"?><!-- {pad} -->\n<catalogue>' + item * 20 + "</catalogue>\n"


def _calls_while(function, *args) -> int:
    """Python- and C-level calls made while running ``function(*args)``
    (collector off: a finalizer run mid-parse would be counted too)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


class TestScanCost:
    @pytest.mark.parametrize(
        "parse", [parse_document, lambda text: parse_fragment(text, Document())]
    )
    def test_calls_are_per_token_not_per_character(self, parse):
        small, large = _scan_fixture(1), _scan_fixture(10)
        assert len(large) > 5 * len(small)
        assert _calls_while(parse, large) == _calls_while(parse, small)


class TestSerializer:
    def test_roundtrip_simple(self):
        text = '<r a="1"><b>hi</b><c/></r>'
        assert serialize(parse_document(text)) == text

    def test_attributes_sorted(self):
        doc = parse_document('<r z="1" a="2"/>')
        assert serialize(doc) == '<r a="2" z="1"/>'

    def test_escaping(self):
        doc = Document()
        root = doc.create_root("r")
        root.new_text("a<b&c>d")
        root.attributes["q"] = 'say "hi" & <go>'
        out = serialize(doc)
        assert "&lt;" in out and "&amp;" in out and "&quot;" in out
        assert canonical(parse_document(out)) == canonical(doc)

    def test_pretty_indents(self):
        doc = parse_document("<r><a><b/></a></r>")
        lines = pretty(doc).splitlines()
        assert lines[0] == "<r>"
        assert lines[1].startswith("  <a>")

    def test_pretty_inlines_text_only(self):
        doc = parse_document("<r><a>x</a></r>")
        assert "<a>x</a>" in pretty(doc)

    def test_serialize_subtree(self):
        doc = parse_document("<r><a>x</a></r>")
        assert serialize(doc.root.first_child("a")) == "<a>x</a>"

    def test_empty_document(self):
        assert serialize(Document()) == ""


class TestIdPersistence:
    def test_ids_roundtrip(self):
        doc = parse_document("<r><a/></r>")
        original_ids = {e.name.local: e.node_id for e in doc.iter_elements()}
        text = serialize(doc, include_ids=True)
        restored = parse_document(text)
        rebind_ids(restored)
        for element in restored.iter_elements():
            assert element.node_id == original_ids[element.name.local]

    def test_rebind_count(self):
        doc = parse_document("<r><a/><b/></r>")
        restored = parse_document(serialize(doc, include_ids=True))
        assert rebind_ids(restored) == 3

    def test_rebind_refuses_a_repeated_id(self):
        """A text that gives two elements one ``repro:id`` is hostile
        input: the second may not silently take the id from the first."""
        restored = parse_document('<r><a repro:id="d1.n5"/><b repro:id="d1.n5"/></r>')
        with pytest.raises(XmlStructureError, match="d1.n5 is held by a live node"):
            rebind_ids(restored)
        assert restored.get_node(NodeId.parse("d1.n5")).name.local == "a"


class TestFragments:
    def test_single(self):
        doc = Document()
        nodes = parse_fragment("<a>x</a>", doc)
        assert len(nodes) == 1
        assert nodes[0].parent is None
        assert nodes[0].document is doc

    def test_multiple_siblings(self):
        doc = Document()
        nodes = parse_fragment("<a/><b/><c/>", doc)
        assert [n.name.local for n in nodes] == ["a", "b", "c"]

    def test_empty(self):
        assert parse_fragment("", Document()) == []

    def test_canonical_equality(self):
        a = parse_document('<r b="2" a="1"><x/></r>')
        b = parse_document('<r a="1" b="2"><x/></r>')
        assert canonical(a) == canonical(b)
