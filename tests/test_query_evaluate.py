"""Unit tests for Select evaluation (repro.query.evaluate)."""

import pytest

from repro.query.evaluate import evaluate_select
from repro.query.parser import parse_select
from repro.xmlstore.parser import parse_document
from repro.xmlstore.path import TraversalMeter


@pytest.fixture
def doc():
    return parse_document(
        """
<ATPList>
  <player rank="1">
    <name><lastname>Federer</lastname></name>
    <citizenship>Swiss</citizenship>
    <points>475</points>
  </player>
  <player rank="2">
    <name><lastname>Nadal</lastname></name>
    <citizenship>Spanish</citizenship>
    <points>390</points>
  </player>
  <player rank="3">
    <name><lastname>Roddick</lastname></name>
    <citizenship>American</citizenship>
    <points>370</points>
  </player>
</ATPList>
""",
        name="ATPList",
    )


class TestBasicEvaluation:
    def test_equality_filter(self, doc):
        q = parse_select(
            "Select p/citizenship from p in ATPList//player "
            "where p/name/lastname = Federer;"
        )
        assert evaluate_select(q, doc).texts() == ["Swiss"]

    def test_no_filter_returns_all(self, doc):
        q = parse_select("Select p/citizenship from p in ATPList//player;")
        assert evaluate_select(q, doc).texts() == ["Swiss", "Spanish", "American"]

    def test_no_match(self, doc):
        q = parse_select(
            "Select p from p in ATPList//player where p/name/lastname = Borg;"
        )
        result = evaluate_select(q, doc)
        assert len(result) == 0
        assert len(result) == 0

    def test_bare_variable_selects_binding(self, doc):
        q = parse_select(
            "Select p from p in ATPList//player where p/citizenship = Swiss;"
        )
        nodes = evaluate_select(q, doc).all_nodes()
        assert len(nodes) == 1
        assert nodes[0].name.local == "player"

    def test_multiple_select_paths(self, doc):
        q = parse_select(
            "Select p/citizenship, p/points from p in ATPList//player "
            "where p/name/lastname = Nadal;"
        )
        assert evaluate_select(q, doc).texts() == ["Spanish", "390"]

    def test_binding_carries_context(self, doc):
        q = parse_select("Select p/points from p in ATPList//player;")
        result = evaluate_select(q, doc)
        assert [b.context.attributes["rank"] for b in result.bindings] == ["1", "2", "3"]


class TestComparisons:
    def test_numeric_gt(self, doc):
        q = parse_select(
            "Select p/name/lastname from p in ATPList//player where p/points > 380;"
        )
        assert evaluate_select(q, doc).texts() == ["Federer", "Nadal"]

    def test_numeric_lte(self, doc):
        q = parse_select(
            "Select p/name/lastname from p in ATPList//player where p/points <= 370;"
        )
        assert evaluate_select(q, doc).texts() == ["Roddick"]

    def test_not_equal(self, doc):
        q = parse_select(
            "Select p/name/lastname from p in ATPList//player "
            "where p/citizenship != Swiss;"
        )
        assert evaluate_select(q, doc).texts() == ["Nadal", "Roddick"]

    def test_string_ordering(self, doc):
        q = parse_select(
            "Select p/name/lastname from p in ATPList//player "
            "where p/citizenship < Spanish;"
        )
        assert evaluate_select(q, doc).texts() == ["Roddick"]  # American < Spanish

    def test_and(self, doc):
        q = parse_select(
            "Select p/name/lastname from p in ATPList//player "
            "where p/points > 380 and p/citizenship = Swiss;"
        )
        assert evaluate_select(q, doc).texts() == ["Federer"]

    def test_or(self, doc):
        q = parse_select(
            "Select p/name/lastname from p in ATPList//player "
            "where p/citizenship = Swiss or p/citizenship = Spanish;"
        )
        assert evaluate_select(q, doc).texts() == ["Federer", "Nadal"]

    def test_and_or_combined(self, doc):
        q = parse_select(
            "Select p/name/lastname from p in ATPList//player "
            "where p/points > 400 and p/citizenship = Swiss or p/points < 375;"
        )
        assert evaluate_select(q, doc).texts() == ["Federer", "Roddick"]


class TestIdSource:
    def test_resolves(self, doc):
        player = doc.root.child_elements()[1]
        q = parse_select(f"Select n/citizenship from n in id({player.node_id!r}@ATPList);")
        assert evaluate_select(q, doc).texts() == ["Spanish"]

    def test_missing_id_is_empty(self, doc):
        q = parse_select("Select n from n in id(d999.n999@ATPList);")
        assert len(evaluate_select(q, doc)) == 0

    def test_detached_id_is_empty(self, doc):
        player = doc.root.child_elements()[0]
        node_id = player.node_id
        player.detach()
        q = parse_select(f"Select n from n in id({node_id!r}@ATPList);")
        assert len(evaluate_select(q, doc)) == 0

    def test_where_applies_to_id_source(self, doc):
        player = doc.root.child_elements()[0]
        q = parse_select(
            f"Select n from n in id({player.node_id!r}@ATPList) "
            "where n/citizenship = Spanish;"
        )
        assert len(evaluate_select(q, doc)) == 0


class TestMeter:
    def test_meter_counts(self, doc):
        meter = TraversalMeter()
        q = parse_select("Select p/points from p in ATPList//player;")
        evaluate_select(q, doc, meter)
        assert meter.nodes_traversed > 3

    def test_empty_document(self):
        from repro.xmlstore.nodes import Document

        q = parse_select("Select p from p in D//x;")
        assert len(evaluate_select(q, Document())) == 0
