"""Tests for attribute steps (@name) in paths and where clauses."""

import pytest

from repro.errors import QuerySyntaxError
from repro.query.evaluate import evaluate_select
from repro.query.parser import parse_action, parse_select
from repro.query.update import apply_action
from repro.txn.compensation import compensating_actions_for
from repro.xmlstore.parser import parse_document
from repro.xmlstore.path import attribute_values_of, parse_path
from repro.xmlstore.serializer import canonical

DOC = parse_document(
    '<ATPList date="18042005">'
    '<player rank="1" seed="top"><name>Federer</name></player>'
    '<player rank="2"><name>Nadal</name></player>'
    "</ATPList>",
    name="ATPList",
)


class TestAttributePaths:
    def test_parse_and_str(self):
        path = parse_path("p/@rank")
        assert path.attribute_name == "rank"
        assert str(path) == "p/@rank"

    def test_wildcard(self):
        assert parse_path("@*").attribute_name == "*"

    @staticmethod
    def values(path_text, context):
        path = parse_path(path_text)
        return attribute_values_of(path.evaluate(context), path.attribute_name)

    def test_attribute_values(self):
        assert self.values("player/@rank", DOC.root) == ["1", "2"]

    def test_missing_attribute_skipped(self):
        assert self.values("player/@seed", DOC.root) == ["top"]

    def test_wildcard_values(self):
        player = DOC.root.child_elements()[0]
        assert sorted(self.values("@*", player)) == ["1", "top"]

    @pytest.mark.parametrize("bad", ["a/@x/b", "//@x", "a/@1bad", "@"])
    def test_rejects(self, bad):
        with pytest.raises(QuerySyntaxError):
            parse_path(bad)


class TestAttributeWhere:
    def test_equality(self):
        q = parse_select(
            "Select p/name from p in ATPList//player where p/@rank = 2;"
        )
        assert evaluate_select(q, DOC).texts() == ["Nadal"]

    def test_numeric_comparison(self):
        q = parse_select(
            "Select p/name from p in ATPList//player where p/@rank < 2;"
        )
        assert evaluate_select(q, DOC).texts() == ["Federer"]

    def test_string_attribute(self):
        q = parse_select(
            "Select p/name from p in ATPList//player where p/@seed = top;"
        )
        assert evaluate_select(q, DOC).texts() == ["Federer"]

    def test_missing_attribute_never_matches(self):
        q = parse_select(
            "Select p/name from p in ATPList//player where p/@ghost = 1;"
        )
        assert len(evaluate_select(q, DOC)) == 0

    def test_combined_with_element_condition(self):
        q = parse_select(
            "Select p from p in ATPList//player "
            "where p/@rank = 1 and p/name = Federer;"
        )
        assert len(evaluate_select(q, DOC)) == 1

    def test_select_path_attribute_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_select("Select p/@rank from p in ATPList//player;")

    def test_roundtrip(self):
        text = "Select p/name from p in ATPList//player where p/@rank = 2;"
        q = parse_select(text)
        assert str(parse_select(str(q))) == str(q)


class TestAttributeTargetedUpdates:
    def test_delete_via_attribute_filter_compensates(self):
        doc = parse_document(
            '<ATPList><player rank="1"><name>F</name></player>'
            '<player rank="2"><name>N</name></player></ATPList>',
            name="ATPList",
        )
        pre = canonical(doc)
        action = parse_action(
            '<action type="delete"><location>Select p/name from p in '
            "ATPList//player where p/@rank = 1;</location></action>"
        )
        result = apply_action(doc, action)
        assert len(result.records) == 1
        for comp in compensating_actions_for(result, "ATPList"):
            apply_action(doc, comp, tolerate_missing_targets=True)
        assert canonical(doc) == pre
