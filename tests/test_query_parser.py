"""Unit tests for the Select/action parsers (repro.query)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import QuerySyntaxError
from repro.query.ast import (
    ActionType, BooleanCondition, Comparison, NodeRef, SelectQuery, UpdateAction,
)
from repro.query.lexer import tokenize
from repro.query.parser import iter_comparisons, parse_action, parse_select


class TestLexer:
    def test_keywords_case_insensitive(self):
        kinds = [t.kind for t in tokenize("SELECT p FROM p IN D//x WHERE")]
        assert kinds == ["KEYWORD", "PATH", "KEYWORD", "PATH", "KEYWORD", "PATH", "KEYWORD"]

    def test_operators(self):
        ops = [t.value for t in tokenize("a = b != c <= d >= e < f > g <> h") if t.kind == "OP"]
        assert ops == ["=", "!=", "<=", ">=", "<", ">", "!="]

    def test_strings(self):
        tokens = tokenize("x = 'Roger Federer'")
        assert tokens[-1].kind == "STRING"
        assert tokens[-1].value == "Roger Federer"

    def test_double_quoted(self):
        assert tokenize('x = "hi"')[-1].value == "hi"

    def test_unterminated_string(self):
        with pytest.raises(QuerySyntaxError):
            tokenize("x = 'oops")

    def test_punctuation(self):
        kinds = [t.kind for t in tokenize("a, b;")]
        assert kinds == ["PATH", "COMMA", "PATH", "SEMI"]


class TestParseSelect:
    def test_paper_query(self):
        q = parse_select(
            "Select p/citizenship from p in ATPList//player "
            "where p/name/lastname = Federer;"
        )
        assert q.var == "p"
        assert q.document_name == "ATPList"
        assert len(q.select_paths) == 1
        assert isinstance(q.where, Comparison)
        assert q.where.literal == "Federer"

    def test_multiple_select_paths(self):
        q = parse_select("Select p/a, p/b, p/c from p in D//x;")
        assert len(q.select_paths) == 3

    def test_bare_variable_select(self):
        q = parse_select("Select p from p in D//x;")
        assert q.select_paths[0].path.steps == ()

    def test_no_where(self):
        assert parse_select("Select p from p in D//x;").where is None

    def test_optional_semicolon(self):
        assert parse_select("Select p from p in D//x").var == "p"

    def test_quoted_literal(self):
        q = parse_select("Select p from p in D//x where p/name = 'Roger Federer';")
        assert q.where.literal == "Roger Federer"

    def test_multiword_bareword_literal(self):
        q = parse_select("Select p from p in D//x where p/name = Roger Federer;")
        assert q.where.literal == "Roger Federer"

    def test_and_or_precedence(self):
        q = parse_select(
            "Select p from p in D//x where p/a = 1 and p/b = 2 or p/c = 3;"
        )
        assert isinstance(q.where, BooleanCondition)
        assert q.where.op == "or"
        assert isinstance(q.where.parts[0], BooleanCondition)
        assert q.where.parts[0].op == "and"

    def test_and_only(self):
        q = parse_select("Select p from p in D//x where p/a = 1 and p/b = 2;")
        assert q.where.op == "and"
        assert len(list(iter_comparisons(q.where))) == 2

    def test_id_source(self):
        q = parse_select("Select n from n in id(d1.n3@ATPList);")
        assert isinstance(q.source, NodeRef)
        assert q.source.node_id_text == "d1.n3"
        assert q.document_name == "ATPList"

    def test_str_roundtrip(self):
        text = "Select p/a, p/b from p in D//x where p/c = 1 and p/d != 2;"
        q = parse_select(text)
        assert str(parse_select(str(q))) == str(q)

    def test_id_source_roundtrip(self):
        q = parse_select("Select n from n in id(d1.n3@ATPList);")
        assert str(parse_select(str(q))) == str(q)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "Select",
            "Select p",
            "Select p from",
            "Select p from p",
            "Select p from p in",
            "Select p from p in D//x where",
            "Select p from p in D//x where p/a =",
            "Select p from p in D//x where p/a = 1 extra trailing, tokens",
            "from p in D//x",
            "Select p from p/q in D//x;",
            "Select p from p in id(broken);",
            "Select q/a from p in D//x;",  # variable mismatch
            "Select p from p in D//x where q/a = 1;",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(QuerySyntaxError):
            parse_select(bad)

    def test_required_names(self):
        q = parse_select(
            "Select p/citizenship, p/points from p in ATPList//player "
            "where p/name/lastname = Federer;"
        )
        assert set(q.required_names()) == {"citizenship", "points", "name", "lastname"}


class TestParseAction:
    def test_delete_action(self):
        a = parse_action(
            '<action type="delete"><location>Select p/citizenship from p in '
            "ATPList//player where p/name/lastname = Federer;</location></action>"
        )
        assert a.action_type is ActionType.DELETE
        assert a.data == ()

    def test_insert_action(self):
        a = parse_action(
            '<action type="insert"><data><citizenship>Swiss</citizenship></data>'
            "<location>Select p from p in D//x;</location></action>"
        )
        assert a.action_type is ActionType.INSERT
        assert [fragment.text for fragment in a.data] == ["<citizenship>Swiss</citizenship>"]

    def test_replace_action(self):
        a = parse_action(
            '<action type="replace"><data><c>USA</c></data>'
            "<location>Select p/c from p in D//x;</location></action>"
        )
        assert a.action_type is ActionType.REPLACE

    def test_query_action(self):
        a = parse_action(
            '<action type="query"><location>Select p from p in D//x;'
            "</location></action>"
        )
        assert a.action_type is ActionType.QUERY
        assert not a.action_type.is_update

    def test_anchor_parsed(self):
        a = parse_action(
            '<action type="insert" anchor="after:d1.n5"><data><x/></data>'
            "<location>Select p from p in D//y;</location></action>"
        )
        assert a.anchor == ("after", "d1.n5")

    def test_rebind_parsed(self):
        a = parse_action(
            '<action type="insert" rebind="true"><data><x/></data>'
            "<location>Select p from p in D//y;</location></action>"
        )
        assert a.rebind

    def test_to_xml_roundtrip(self):
        xml = (
            '<action type="insert" anchor="before:d1.n2" rebind="true">'
            "<data><x a=\"1\">t</x></data>"
            "<location>Select p from p in D//y;</location></action>"
        )
        a = parse_action(xml)
        assert parse_action(a.to_xml()).to_xml() == a.to_xml()

    @pytest.mark.parametrize(
        "bad",
        [
            "<wrong/>",
            '<action type="explode"><location>Select p from p in D//x;</location></action>',
            '<action type="delete"></action>',  # no location
            '<action type="insert"><location>Select p from p in D//x;</location></action>',  # no data
            '<action type="insert" anchor="sideways:d1.n1"><data><x/></data>'
            "<location>Select p from p in D//x;</location></action>",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(QuerySyntaxError):
            parse_action(bad)


class TestLiteralRoundTrip:
    """A where-literal's logged text reads back as the same literal: bare
    where the bare words parse back to it, quoted otherwise."""

    BASE = parse_select("Select p from p in D//x where p/name = a;")

    def test_a_literal_with_a_semicolon_is_quoted(self):
        a = parse_action(
            "<action type=\"query\"><location>Select p from p in D//x where p/name = 'a;b';"
            "</location></action>"
        )
        assert a.to_xml().endswith("p/name = 'a;b';</location></action>")
        assert parse_action(a.to_xml()) == a

    def test_traffic_literals_stay_bare(self):
        for text in ["Federer", "Roger Federer", "890", "-1.5e3", "SKU-0001", "in", "a = b", "x!"]:
            comparison = Comparison(self.BASE.where.left, "=", text)
            assert str(comparison) == f"p/name = {text}"

    def test_both_quote_characters_raise_where_the_literal_is_built(self):
        with pytest.raises(QuerySyntaxError, match="both quote characters"):
            Comparison(self.BASE.where.left, "=", "it's \"x\"")

    @settings(max_examples=500, deadline=None)
    @given(st.text(), st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
    @example("a;b", "=")
    @example("Roger  Federer", "=")
    @example("In", "=")
    @example("x or p/points > 0", "=")
    @example("", "=")
    @example("<>", "!=")
    def test_any_literal_round_trips(self, literal, op):
        if "'" in literal and '"' in literal:
            with pytest.raises(QuerySyntaxError):
                Comparison(self.BASE.where.left, op, literal)
            return
        where = Comparison(self.BASE.where.left, op, literal)
        select = SelectQuery(self.BASE.select_paths, "p", self.BASE.source, where)
        a = UpdateAction(ActionType.QUERY, select)
        assert parse_action(a.to_xml()) == a
