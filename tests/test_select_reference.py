"""``parse_select`` against the token-stream parser it replaced.

``parse_select`` scans a Select in one regex pass into plain tuples
(:func:`repro.query.lexer.scan_select`) and walks that list by index.
The parser it replaced — a peekable ``_TokenStream`` over frozen
``Token`` dataclasses, and the match-per-token lexer under it — is kept
here, verbatim, as the reference: for every input both must give an
equal ``SelectQuery`` (equality and ``str()``), or raise the same
exception type with the same message and position.  Inputs: every
input of the lexer golden corpus, every Select string literal in the
tree, and generated Selects (select lists, ``and``/``or`` chains,
quoted, multi-word and numeric literals, mixed-case keywords, ``id()``
sources) with every truncation of some of them.
"""

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import QuerySyntaxError
from repro.query.ast import (
    BooleanCondition, Comparison, Condition, NodeRef, SelectQuery, VarPath,
)
from repro.query.parser import iter_comparisons, parse_select
from repro.xmlstore.path import PathExpr, parse_path

ROOT = Path(__file__).resolve().parent.parent
LEXER_GOLDEN = ROOT / "tests" / "data" / "lexer_golden.json"

# ---------------------------------------------------------------------------
# The reference: lexer and parser as they stood before the one-pass scan
# ---------------------------------------------------------------------------

KEYWORDS = {"select", "from", "in", "where", "and", "or"}

#: One token (or an unterminated quote) after optional whitespace.  A
#: word runs up to whitespace, punctuation, a quote or an operator; a
#: ``!`` that no ``=`` follows is an ordinary word character.
_TOKEN = re.compile(
    r"""[ \t\r\n]*(?:
        (?P<COMMA>,)
      | (?P<SEMI>;)
      | '(?P<single>[^']*)' | "(?P<double>[^"]*)"
      | (?P<unterminated>['"])
      | (?P<OP>!=|<>|<=|>=|=|<|>)
      | (?P<word>(?:[^ \t\r\n,;'"!<>=]|!(?!=))+)
    )""",
    re.VERBOSE,
).match


@dataclass(frozen=True)
class Token:
    """A lexical token with its source position (for error messages)."""

    kind: str
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == "KEYWORD" and self.value == word


def reference_tokenize(text: str) -> List[Token]:
    """Split *text* into tokens; raises :class:`QuerySyntaxError` on junk."""
    tokens: List[Token] = []
    match = _TOKEN(text)
    while match is not None:
        kind = match.lastgroup
        value, pos = match.group(kind), match.start(kind)
        if kind == "word":
            lowered = value.lower()
            if lowered in KEYWORDS:
                kind, value = "KEYWORD", lowered
            else:
                kind = "PATH"
        elif kind == "OP" and value == "<>":
            value = "!="
        elif kind in ("single", "double"):
            kind, pos = "STRING", pos - 1
        elif kind == "unterminated":
            raise QuerySyntaxError("unterminated string literal", pos)
        tokens.append(Token(kind, value, pos))
        match = _TOKEN(text, match.end())
    return tokens


class _TokenStream:
    """A peekable stream over the token list."""

    def __init__(self, tokens: List[Token], source: str):
        self._tokens = tokens
        self._pos = 0
        self._source = source

    def peek(self) -> Optional[Token]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise QuerySyntaxError(
                f"unexpected end of query: {self._source!r}", len(self._source)
            )
        self._pos += 1
        return token

    def expect_keyword(self, word: str) -> Token:
        token = self.next()
        if not token.is_keyword(word):
            raise QuerySyntaxError(
                f"expected {word!r}, found {token.value!r}", token.position
            )
        return token

    def at_end(self) -> bool:
        return self.peek() is None


def reference_parse_select(text: str) -> SelectQuery:
    """Parse the paper's Select form into a :class:`SelectQuery`.

    Example accepted input (verbatim from §3.1)::

        Select p/citizenship from p in ATPList//player
        where p/name/lastname = Federer;
    """
    stream = _TokenStream(reference_tokenize(text), text)
    stream.expect_keyword("select")
    select_paths = [_parse_varpath_token(stream.next())]
    while stream.peek() is not None and stream.peek().kind == "COMMA":
        stream.next()
        select_paths.append(_parse_varpath_token(stream.next()))
    stream.expect_keyword("from")
    var_token = stream.next()
    if var_token.kind != "PATH" or "/" in var_token.value:
        raise QuerySyntaxError(
            f"expected a variable name after 'from', found {var_token.value!r}",
            var_token.position,
        )
    var = var_token.value
    stream.expect_keyword("in")
    source_token = stream.next()
    if source_token.kind != "PATH":
        raise QuerySyntaxError(
            f"expected a source path after 'in', found {source_token.value!r}",
            source_token.position,
        )
    source: Union[PathExpr, NodeRef]
    if source_token.value.startswith("id(") and source_token.value.endswith(")"):
        inner = source_token.value[3:-1]
        node_id_text, at, doc_name = inner.partition("@")
        if not at or not node_id_text or not doc_name:
            raise QuerySyntaxError(
                f"malformed id source {source_token.value!r}; expected "
                "id(<nodeid>@<document>)",
                source_token.position,
            )
        source = NodeRef(node_id_text, doc_name)
    else:
        source = parse_path(source_token.value)
    where: Optional[Condition] = None
    nxt = stream.peek()
    if nxt is not None and nxt.is_keyword("where"):
        stream.next()
        where = _parse_condition(stream)
    nxt = stream.peek()
    if nxt is not None and nxt.kind == "SEMI":
        stream.next()
    if not stream.at_end():
        trailing = stream.peek()
        raise QuerySyntaxError(
            f"unexpected trailing token {trailing.value!r}", trailing.position
        )
    _check_var_consistency(select_paths, var, where)
    return SelectQuery(tuple(select_paths), var, source, where)


def _parse_varpath_token(token: Token) -> VarPath:
    if token.kind != "PATH":
        raise QuerySyntaxError(f"expected a path, found {token.value!r}", token.position)
    return _split_varpath(token.value, token.position)


def _split_varpath(text: str, position: int) -> VarPath:
    var, slash, rest = text.partition("/")
    if not var:
        raise QuerySyntaxError(f"path must start with a variable: {text!r}", position)
    if not slash:
        return VarPath(var, PathExpr(()))
    return VarPath(var, parse_path(rest))


def _parse_condition(stream: _TokenStream) -> Condition:
    parts: List[Union[BooleanCondition, Comparison]] = [_parse_comparison(stream)]
    ops: List[str] = []
    while True:
        token = stream.peek()
        if token is None or not (token.is_keyword("and") or token.is_keyword("or")):
            break
        ops.append(stream.next().value)
        parts.append(_parse_comparison(stream))
    if len(parts) == 1:
        return parts[0]
    # 'and' binds tighter than 'or': group maximal and-runs first.
    or_groups: List[Union[BooleanCondition, Comparison]] = []
    group: List[Union[BooleanCondition, Comparison]] = [parts[0]]
    for op, part in zip(ops, parts[1:]):
        if op == "and":
            group.append(part)
        else:
            or_groups.append(_fold_and(group))
            group = [part]
    or_groups.append(_fold_and(group))
    if len(or_groups) == 1:
        return or_groups[0]
    return BooleanCondition("or", tuple(or_groups))


def _fold_and(
    group: List[Union[BooleanCondition, Comparison]]
) -> Union[BooleanCondition, Comparison]:
    if len(group) == 1:
        return group[0]
    return BooleanCondition("and", tuple(group))


def _parse_comparison(stream: _TokenStream) -> Comparison:
    left = _parse_varpath_token(stream.next())
    op_token = stream.next()
    if op_token.kind != "OP":
        raise QuerySyntaxError(
            f"expected a comparison operator, found {op_token.value!r}",
            op_token.position,
        )
    literal_parts: List[str] = []
    while True:
        token = stream.peek()
        if token is None or token.kind in ("SEMI", "COMMA") or (
            token.kind == "KEYWORD" and token.value in ("and", "or")
        ):
            break
        token = stream.next()
        literal_parts.append(token.value)
        if token.kind == "STRING":
            break
    if not literal_parts:
        raise QuerySyntaxError(
            "comparison is missing its right-hand side", op_token.position
        )
    # Barewords may span several tokens ("Roger Federer"); rejoin them.
    literal = " ".join(literal_parts)
    return Comparison(left, op_token.value, literal)


def _check_var_consistency(
    select_paths: List[VarPath], var: str, where: Optional[Condition]
) -> None:
    for vp in select_paths:
        if vp.var != var:
            raise QuerySyntaxError(
                f"select path variable {vp.var!r} is not the bound variable {var!r}"
            )
        if vp.path.steps and vp.path.attribute_name:
            raise QuerySyntaxError(
                "attribute steps (@name) are supported in where clauses only; "
                f"select path {vp} returns nodes"
            )
    for comparison in iter_comparisons(where):
        if comparison.left.var != var:
            raise QuerySyntaxError(
                f"where-clause variable {comparison.left.var!r} is not the bound "
                f"variable {var!r}"
            )


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def outcome(parse, text: str):
    """``("ok", query, str(query))`` or ``("raised", type, message, position)``."""
    try:
        query = parse(text)
    except Exception as exc:  # compared by type, message and position
        return ("raised", type(exc), str(exc), getattr(exc, "position", None))
    return ("ok", query, str(query))


def assert_same(texts) -> int:
    """Both parsers agree on every text; returns how many parsed."""
    parsed = 0
    for text in texts:
        got, expected = outcome(parse_select, text), outcome(reference_parse_select, text)
        assert got == expected, text
        parsed += got[0] == "ok"
    return parsed


def _select_literals() -> List[str]:
    """Every string constant under the tree's Python sources that holds a
    Select: the ``<location>`` text of an action, the string otherwise."""
    texts: List[str] = []
    for directory in ("src", "tests", "examples", "benchmarks", "tools"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if "select" in node.value.lower():
                        locations = re.findall(r"<location>(.*?)</location>", node.value, re.DOTALL)
                        texts.extend(locations or [node.value])
    return list(dict.fromkeys(texts))


def test_the_lexer_golden_inputs():
    rows = json.loads(LEXER_GOLDEN.read_text(encoding="utf-8"))
    assert len(rows) == 767
    assert_same(row["input"] for row in rows)


def test_every_select_literal_in_the_tree():
    texts = _select_literals()
    assert len(texts) > 100
    assert assert_same(texts) > 100


CANONICAL = (
    "Select p/citizenship from p in ATPList//player where p/name/lastname = Federer;",
    "Select i/author, i/title from i in Catalogue1//article where i/sku = 340 and i/year > 1999;",
    "SELECT p FROM p IN id(d1.n3@ATPList) WHERE p/a = 'x y' or p/b <> \"q\";",
)


def test_every_truncation_of_the_canonical_texts():
    assert assert_same(text[:cut] for text in CANONICAL for cut in range(len(text) + 1)) >= 3


# ---------------------------------------------------------------------------
# Generated Selects
# ---------------------------------------------------------------------------

def _cased(word: str):
    return st.sampled_from((word, word.upper(), word.capitalize(), word[:1] + word[1:].upper()))


#: Parts that parse, then parts that fail (drawn one time in six).
PATHS = (("i", "i/a", "i/sku", "i/a/b", "i/@rank", "i/*", "i//x", "i/..", "i/text()"),
         ("j/a", "/a", "i/", "i//", "i/@", "'i'", "i/a/@b/c"))
LITERALS = (("340", "1_000", "NaN", " 12 ", "'Roger Federer'", '"q"', "Roger Federer", "x y z",
             "''", "-1.5e3", "Infinity", "from", "in", "$v", "a!b"), ("'", "", ",", "and"))
SOURCES = (("D//x", "Catalogue1//article", "D", "D/x/..", "//x", "id(d1.n3@D)"),
           ("id(d1.n3)", "id(@D)", "id(d1.n3@)", "D//@x", "'D'", "D//"))
OPERATORS = (("=", "!=", "<>", "<", ">", "<=", ">="), ("~", "=="))


def _part(pools):
    good, bad = pools
    return st.integers(0, 5).flatmap(lambda roll: st.sampled_from(bad if roll == 0 else good))


@st.composite
def selects(draw) -> str:
    paths = draw(st.lists(_part(PATHS), min_size=1, max_size=3))
    parts = [draw(_cased("select")), draw(st.sampled_from((", ", ",", " , "))).join(paths),
             draw(_cased("from")), draw(_part((("i",), ("i/a", "'i'", "where")))),
             draw(_cased("in")), draw(_part(SOURCES))]
    comparisons = draw(st.lists(st.tuples(_part(PATHS), _part(OPERATORS), _part(LITERALS)),
                                max_size=4))
    if comparisons:
        parts.append(draw(_cased("where")))
        for k, (left, op, literal) in enumerate(comparisons):
            if k:
                parts.append(draw(_cased(draw(st.sampled_from(("and", "or"))))))
            parts += [left, op, literal]
    text = draw(st.sampled_from((" ", "  ", "\n", "\t"))).join(parts)
    text += draw(st.sampled_from((";", "", " ;", ";", "; x", ",")))
    if draw(st.integers(0, 5)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=600, deadline=None)
@given(text=selects())
@example(text="Select i from i in D where i/a = 1_000 and i/b = NaN or i/c =  12 ;")
@example(text="select i/a, i/b from i in id(d1.n3@D) where i/a = 'x' b;")
def test_generated_selects(text):
    assert_same([text])


def test_generated_selects_parse():
    """The generator reaches both sides: most draws fail somewhere, and
    enough parse for the equality to mean something."""
    parsed = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=selects())
    def collect(text):
        parsed.append(outcome(parse_select, text)[0] == "ok")

    collect()
    assert 0.1 < sum(parsed) / len(parsed) < 0.9
