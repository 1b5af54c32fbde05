"""Unit tests for path expressions (repro.xmlstore.path)."""

import pytest

from repro.errors import QuerySyntaxError
from repro.xmlstore.parser import parse_document
from repro.xmlstore.path import PathExpr, Step, TraversalMeter, parse_path

DOC = parse_document(
    """
<ATPList date="18042005">
  <player rank="1">
    <name><firstname>Roger</firstname><lastname>Federer</lastname></name>
    <citizenship>Swiss</citizenship>
    <points>475</points>
  </player>
  <player rank="2">
    <name><firstname>Rafael</firstname><lastname>Nadal</lastname></name>
    <citizenship>Spanish</citizenship>
  </player>
</ATPList>
""",
    name="ATPList",
)


class TestParsePath:
    def test_simple_child_chain(self):
        path = parse_path("name/lastname")
        assert [s.axis for s in path.steps] == ["child", "child"]

    def test_descendant(self):
        path = parse_path("ATPList//player")
        assert path.steps[1].axis == "descendant"

    def test_leading_descendant(self):
        path = parse_path("//player")
        assert path.steps[0].axis == "descendant"

    def test_parent_step(self):
        path = parse_path("citizenship/..")
        assert path.steps[-1].axis == "parent"

    def test_wildcard(self):
        assert parse_path("*").steps[0].name is None

    def test_text_step(self):
        path = parse_path("name/text()")
        assert path.steps[-1].axis == "text"

    def test_prefixed_name(self):
        path = parse_path("axml:sc")
        assert path.steps[0].name.prefix == "axml"

    @pytest.mark.parametrize("bad", ["", "/", "a/", "a//", "//..", "a/<>/b", "9bad"])
    def test_rejects(self, bad):
        with pytest.raises(QuerySyntaxError):
            parse_path(bad)

    def test_str_roundtrip(self):
        for text in ["a/b", "ATPList//player", "a/..", "//x/y", "*/b"]:
            assert str(parse_path(text)) == text


class TestEvaluate:
    def test_absolute_root_match(self):
        assert len(parse_path("ATPList//player").evaluate(DOC)) == 2

    def test_absolute_root_mismatch(self):
        assert parse_path("Other//player").evaluate(DOC) == []

    def test_descendant_from_document(self):
        assert len(parse_path("//lastname").evaluate(DOC)) == 2

    def test_child_chain_from_element(self):
        player = parse_path("//player").evaluate(DOC)[0]
        nodes = parse_path("name/lastname").evaluate(player)
        assert [n.text_content() for n in nodes] == ["Federer"]

    def test_parent_step(self):
        player = parse_path("//player").evaluate(DOC)[0]
        nodes = parse_path("citizenship/..").evaluate(player)
        assert nodes == [player]

    def test_parent_of_root_is_empty(self):
        assert parse_path("..").evaluate(DOC.root) == []

    def test_wildcard_children(self):
        player = parse_path("//player").evaluate(DOC)[0]
        assert len(parse_path("*").evaluate(player)) == 3

    def test_dedupe(self):
        # //name/.. can reach the same player via multiple routes.
        nodes = parse_path("//lastname/../..").evaluate(DOC)
        assert len(nodes) == 2

    def test_sequence_context(self):
        players = [n for n in parse_path("//player").evaluate(DOC)]
        nodes = parse_path("citizenship").evaluate(players)
        assert len(nodes) == 2

    def test_empty_document(self):
        from repro.xmlstore.nodes import Document

        assert parse_path("//x").evaluate(Document()) == []

    def test_child_names(self):
        assert parse_path("p/name/lastname").child_names() == ["p", "name", "lastname"]


class TestTraversalMeter:
    def test_counts_traversals(self):
        meter = TraversalMeter()
        parse_path("//player").evaluate(DOC, meter)
        assert meter.nodes_traversed > 0

    def test_descendant_costs_more_than_child(self):
        deep, shallow = TraversalMeter(), TraversalMeter()
        parse_path("//lastname").evaluate(DOC, deep)
        player = parse_path("//player").evaluate(DOC)[0]
        parse_path("citizenship").evaluate(player, shallow)
        assert deep.nodes_traversed > shallow.nodes_traversed


class TestAxmlTransparency:
    AXML = parse_document(
        """
<r><p>
  <axml:sc mode="replace" methodName="m">
    <axml:params><axml:param name="n"><axml:value>v</axml:value></axml:param></axml:params>
    <points>475</points>
    <axml:catch faultName="A"><note/></axml:catch>
  </axml:sc>
</p></r>
"""
    )

    def test_child_sees_through_sc(self):
        p = parse_path("//p").evaluate(self.AXML)[0]
        nodes = parse_path("points").evaluate(p)
        assert [n.text_content() for n in nodes] == ["475"]

    def test_params_not_content(self):
        assert parse_path("//axml:value").evaluate(self.AXML) == []

    def test_catch_body_not_content(self):
        assert parse_path("//note").evaluate(self.AXML) == []

    def test_explicit_sc_addressable(self):
        assert len(parse_path("//axml:sc").evaluate(self.AXML)) == 1
        p = parse_path("//p").evaluate(self.AXML)[0]
        assert len(parse_path("axml:sc").evaluate(p)) == 1

    def test_nested_sc_transparent(self):
        doc = parse_document(
            "<r><axml:sc methodName='a'><axml:sc methodName='b'>"
            "<x>1</x></axml:sc></axml:sc></r>"
        )
        nodes = parse_path("x").evaluate(doc.root)
        assert [n.text_content() for n in nodes] == ["1"]
