"""Parser for Select queries and ``<action>`` documents."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.errors import QuerySyntaxError
from repro.query.ast import (
    ActionType,
    BooleanCondition,
    Comparison,
    Condition,
    NodeRef,
    SelectQuery,
    UpdateAction,
    VarPath,
)
from repro.query.lexer import Token, tokenize
from repro.xmlstore.names import QName
from repro.xmlstore.nodes import Element, Node, Text
from repro.xmlstore.parser import scan_action
from repro.xmlstore.path import PathExpr, parse_path
from repro.xmlstore.serializer import serialize


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


def parse_select(text: str) -> SelectQuery:
    """Parse the paper's Select form into a :class:`SelectQuery`.

    Example accepted input (verbatim from §3.1)::

        Select p/citizenship from p in ATPList//player
        where p/name/lastname = Federer;
    """
    stream = _TokenStream(tokenize(text), text)
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


def iter_comparisons(condition: Optional[Condition]):
    """Yield every :class:`Comparison` inside *condition*."""
    if condition is None:
        return
    if isinstance(condition, Comparison):
        yield condition
        return
    for part in condition.parts:
        yield from iter_comparisons(part)


def parse_action(xml_text: str) -> UpdateAction:
    """Parse an ``<action type="…">`` document (§3.1) to an UpdateAction.

    The envelope is read without being built (:func:`scan_action`)."""
    return _build_action(*scan_action(xml_text))


def action_from_element(root: Element) -> UpdateAction:
    """Build an UpdateAction from an already-parsed ``<action>`` element."""
    location = root.first_child("location")
    children = [child for data_el in root.find_children("data") for child in data_el.children]
    text = None if location is None else location.text_content()
    return _build_action(root.name, root.attributes, text, children)


def _build_action(name: QName, attributes: Dict[str, str], location_text: Optional[str],
                  children: List[Node]) -> UpdateAction:
    """What an ``<action>`` root means, read as :func:`scan_action` returns it."""
    if name.local != "action":
        raise QuerySyntaxError(f"expected <action>, found <{name.text}>")
    type_text = attributes.get("type", "")
    try:
        action_type = ActionType.parse(type_text)
    except ValueError as exc:
        raise QuerySyntaxError(str(exc))
    if location_text is None:
        raise QuerySyntaxError("<action> is missing its <location> query")
    location = parse_select(location_text)
    data = [serialize(child) for child in children]
    anchor: Optional[Tuple[str, str]] = None
    anchor_text = attributes.get("anchor")
    if anchor_text:
        mode, _, node_id = anchor_text.partition(":")
        if mode not in ("before", "after") or not node_id:
            raise QuerySyntaxError(f"malformed anchor attribute {anchor_text!r}")
        anchor = (mode, node_id)
    if action_type.is_update and action_type is not ActionType.DELETE and not data:
        raise QuerySyntaxError(
            f"<action type={action_type.value!r}> requires a <data> payload"
        )
    rebind = attributes.get("rebind", "") == "true"
    prototypes = [[child] if _clone_parses(child) else None for child in children]
    return UpdateAction(action_type, location, tuple(data), anchor, rebind, (prototypes, None))


def _clone_parses(child: Node) -> bool:
    """Whether a clone of *child* is what parsing its serialized text
    gives: it is an element, and no two text nodes in it are adjacent
    siblings (the text would hold them as one run)."""
    return isinstance(child, Element) and not any(
        isinstance(left, Text) and isinstance(right, Text)
        for element in child.iter_elements()
        for left, right in zip(element.children, element.children[1:])
    )
