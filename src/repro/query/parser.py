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
from repro.query.lexer import scan_select
from repro.xmlstore.fragment import Fragment
from repro.xmlstore.names import QName
from repro.xmlstore.nodes import Element
from repro.xmlstore.parser import scan_action
from repro.xmlstore.path import PathExpr, parse_path
from repro.xmlstore.serializer import serialize


#: What :func:`parse_select` appends to the token list: reading it is
#: reading past the end of the query.
_END = ("END", "", -1)


def parse_select(text: str) -> SelectQuery:
    """Parse the paper's Select form into a :class:`SelectQuery`.

    Example accepted input (verbatim from §3.1)::

        Select p/citizenship from p in ATPList//player
        where p/name/lastname = Federer;

    The token list (:func:`scan_select`, plain tuples) is walked by index.
    """
    tokens = scan_select(text)
    tokens.append(_END)
    if tokens[0][:2] != ("KEYWORD", "select"):
        raise _error(tokens[0], text, f"expected 'select', found {tokens[0][1]!r}")
    select_paths = [_varpath(tokens[1], text)]
    i = 2
    while tokens[i][0] == "COMMA":
        select_paths.append(_varpath(tokens[i + 1], text))
        i += 2
    if tokens[i][:2] != ("KEYWORD", "from"):
        raise _error(tokens[i], text, f"expected 'from', found {tokens[i][1]!r}")
    kind, var, position = tokens[i + 1]
    if kind != "PATH" or "/" in var:
        raise _error(tokens[i + 1], text,
                     f"expected a variable name after 'from', found {var!r}")
    if tokens[i + 2][:2] != ("KEYWORD", "in"):
        raise _error(tokens[i + 2], text, f"expected 'in', found {tokens[i + 2][1]!r}")
    kind, value, position = tokens[i + 3]
    if kind != "PATH":
        raise _error(tokens[i + 3], text, f"expected a source path after 'in', found {value!r}")
    source: Union[PathExpr, NodeRef]
    if value.startswith("id(") and value.endswith(")"):
        node_id_text, at, doc_name = value[3:-1].partition("@")
        if not at or not node_id_text or not doc_name:
            raise QuerySyntaxError(
                f"malformed id source {value!r}; expected id(<nodeid>@<document>)", position
            )
        source = NodeRef(node_id_text, doc_name)
    else:
        source = parse_path(value)
    i += 4
    where: Optional[Condition] = None
    comparisons: List[Comparison] = []
    if tokens[i][:2] == ("KEYWORD", "where"):
        where, i = _parse_condition(tokens, i + 1, text, comparisons)
    if tokens[i][0] == "SEMI":
        i += 1
    if tokens[i] is not _END:
        raise QuerySyntaxError(f"unexpected trailing token {tokens[i][1]!r}", tokens[i][2])
    _check_var_consistency(select_paths, var, comparisons)
    return SelectQuery(tuple(select_paths), var, source, where)


def _error(token: Tuple[str, str, int], text: str, message: str) -> QuerySyntaxError:
    """*message* at *token*, or the end of the query for :data:`_END`."""
    if token is _END:
        return QuerySyntaxError(f"unexpected end of query: {text!r}", len(text))
    return QuerySyntaxError(message, token[2])


def _varpath(token: Tuple[str, str, int], text: str) -> VarPath:
    kind, value, position = token
    if kind != "PATH":
        raise _error(token, text, f"expected a path, found {value!r}")
    var, slash, rest = value.partition("/")
    if not var:
        raise QuerySyntaxError(f"path must start with a variable: {value!r}", position)
    return VarPath(var, parse_path(rest) if slash else PathExpr(()))


def _parse_condition(tokens: List[Tuple[str, str, int]], i: int, text: str,
                     comparisons: List[Comparison]) -> Tuple[Condition, int]:
    """The comparisons from token *i* on (each appended to *comparisons*),
    joined by ``and``/``or`` (``and`` binds tighter: maximal and-runs are
    grouped first), and the index of the token after them."""
    part, i = _parse_comparison(tokens, i, text)
    comparisons.append(part)
    if tokens[i][1] not in ("and", "or") or tokens[i][0] != "KEYWORD":
        return part, i
    or_groups = [[part]]
    while tokens[i][0] == "KEYWORD" and tokens[i][1] in ("and", "or"):
        op = tokens[i][1]
        part, i = _parse_comparison(tokens, i + 1, text)
        comparisons.append(part)
        if op == "and":
            or_groups[-1].append(part)
        else:
            or_groups.append([part])
    parts = [group[0] if len(group) == 1 else BooleanCondition("and", tuple(group))
             for group in or_groups]
    return (parts[0] if len(parts) == 1 else BooleanCondition("or", tuple(parts))), i


def _parse_comparison(tokens: List[Tuple[str, str, int]], i: int,
                      text: str) -> Tuple[Comparison, int]:
    left = _varpath(tokens[i], text)
    op_token = tokens[i + 1]
    if op_token[0] != "OP":
        raise _error(op_token, text, f"expected a comparison operator, found {op_token[1]!r}")
    i += 2
    # Barewords may span several tokens ("Roger Federer"); rejoin them.
    literal_parts: List[str] = []
    while True:
        kind, value, _ = tokens[i]
        if kind in ("SEMI", "COMMA", "END") or (kind == "KEYWORD" and value in ("and", "or")):
            break
        literal_parts.append(value)
        i += 1
        if kind == "STRING":
            break
    if not literal_parts:
        raise QuerySyntaxError("comparison is missing its right-hand side", op_token[2])
    return Comparison(left, op_token[1], " ".join(literal_parts)), i


def _check_var_consistency(
    select_paths: List[VarPath], var: str, comparisons: List[Comparison]
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
    for comparison in comparisons:
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

    The envelope is read without being built (:func:`scan_action`), and
    its ``<data>`` children become fragments that belong to no document."""
    return _build_action(*scan_action(xml_text))


def action_from_element(root: Element) -> UpdateAction:
    """Build an UpdateAction from an already-parsed ``<action>`` element.

    The element is a shipped ``<compensation>``'s child; each ``<data>``
    child is kept as its text."""
    location = root.first_child("location")
    fragments = [Fragment(text=serialize(child))
                 for data_el in root.find_children("data") for child in data_el.children]
    text = None if location is None else location.text_content()
    return _build_action(root.name, root.attributes, text, fragments)


def _build_action(name: QName, attributes: Dict[str, str], location_text: Optional[str],
                  fragments: List[Fragment]) -> UpdateAction:
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
    anchor: Optional[Tuple[str, str]] = None
    anchor_text = attributes.get("anchor")
    if anchor_text:
        mode, _, node_id = anchor_text.partition(":")
        if mode not in ("before", "after") or not node_id:
            raise QuerySyntaxError(f"malformed anchor attribute {anchor_text!r}")
        anchor = (mode, node_id)
    if action_type.is_update and action_type is not ActionType.DELETE and not fragments:
        raise QuerySyntaxError(
            f"<action type={action_type.value!r}> requires a <data> payload"
        )
    rebind = attributes.get("rebind", "") == "true"
    return UpdateAction(action_type, location, tuple(fragments), anchor, rebind)
