"""AST for Select queries and ``<action>`` update documents."""

from __future__ import annotations

import enum
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.errors import QuerySyntaxError
from repro.xmlstore.fragment import Fragment
from repro.xmlstore.path import PathExpr


class ActionType(enum.Enum):
    """The paper's four operation kinds on AXML documents (§3)."""

    QUERY = "query"
    INSERT = "insert"
    DELETE = "delete"
    REPLACE = "replace"

    @classmethod
    def parse(cls, text: str) -> "ActionType":
        member = cls._value2member_map_.get(text.lower())
        if member is None:
            raise ValueError(f"unknown action type {text!r}")
        return member

    @property
    def is_update(self) -> bool:
        """True for the mutating action types."""
        return self is not ActionType.QUERY


@dataclass(frozen=True)
class VarPath:
    """A variable-rooted path, e.g. ``p/name/lastname``.

    ``var`` is the binding variable from the ``from`` clause; ``path`` is
    the relative path below it (may be empty — plain ``p``).
    """

    var: str
    path: PathExpr

    def __str__(self) -> str:
        suffix = str(self.path)
        return f"{self.var}/{suffix}" if self.path.steps else self.var


@dataclass(frozen=True)
class Comparison:
    """``left op literal`` — e.g. ``p/name/lastname = Federer``."""

    left: VarPath
    op: str
    literal: str
    #: ``op`` as a function, and ``literal`` as a number or None (see
    #: :meth:`matches`): both read once, when the comparison is built.
    _compare: Optional[Callable[[Any, Any], bool]] = field(init=False, repr=False, compare=False)
    _number: Optional[float] = field(init=False, repr=False, compare=False)
    #: The comparison compiled into a filter over candidates, memoized on
    #: first use by :mod:`repro.query.evaluate`.
    _plan: Optional[Callable[..., Any]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __str__(self) -> str:
        return f"{self.left} {self.op} {literal_text(self.literal)}"

    def matches(self, value: str) -> bool:
        """Apply the comparison to a candidate text value.

        Two numbers compare as numbers (so ``points > 400`` behaves as
        expected); anything else compares as strings.  A text is a number
        when ``float()`` reads it as a finite value and it holds no ``_``
        (so ``NaN``, ``Infinity`` and ``1_000`` are strings, and
        ``" 12 "`` is 12).
        """
        compare = self._compare
        if compare is None:
            raise ValueError(f"unknown operator {self.op!r}")
        if self._number is not None:
            number = _as_number(value)
            if number is not None:
                return compare(number, self._number)
        return compare(value, self.literal)

    def __post_init__(self) -> None:
        if "'" in self.literal and '"' in self.literal:
            raise QuerySyntaxError(
                f"literal {self.literal!r} holds both quote characters: no Select can spell it"
            )
        object.__setattr__(self, "_compare", _OPERATORS.get(self.op))
        object.__setattr__(self, "_number", _as_number(self.literal))


#: Lexer words and operators one space apart, none of them a keyword the
#: parser ends the literal at (``and``/``or``) or lowers (``In``): the
#: runs it joins back into the literal they spell (``Roger Federer``).
_TOKEN = (
    r"(?!(?:(?i:and|or)|(?!select|from|in|where)(?i:select|from|in|where))(?![^ ]))"
    r"""(?:(?:[^ \t\r\n,;'"!<>=]|!(?!=))+|[!<>]=|[=<>])"""
)
_BAREWORDS = re.compile(f"{_TOKEN}(?: {_TOKEN})*").fullmatch


def literal_text(literal: str) -> str:
    """*literal* as a where-clause writes it, bare or quoted.

    Bare when the parser reads the bare form back as *literal*
    (``= Federer``), else quoted with the quote character it does not
    contain (``= 'a;b'``)."""
    if _BAREWORDS(literal) is not None:
        return literal
    quote = '"' if "'" in literal else "'"
    return f"{quote}{literal}{quote}"


_OPERATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    ">": operator.gt, "<=": operator.le, ">=": operator.ge,
}


def _as_number(text: str) -> Optional[float]:
    """*text* as the number a where-clause compares, or None (a string)."""
    if "_" in text:
        return None
    try:
        number = float(text)
    except ValueError:
        return None
    return number if math.isfinite(number) else None


@dataclass(frozen=True)
class BooleanCondition:
    """``and``/``or`` combination of comparisons, left-associative."""

    op: str  # "and" | "or"
    parts: Sequence[Union["BooleanCondition", Comparison]]

    def __str__(self) -> str:
        return f" {self.op} ".join(str(p) for p in self.parts)


Condition = Union[BooleanCondition, Comparison]


@dataclass(frozen=True)
class NodeRef:
    """An id-based query source: ``id(d1.n3@ATPList)``.

    Dynamic compensation targets nodes by their logged ids rather than by
    re-evaluating the original location path: after a delete, the paper's
    path-based compensating location (``p/citizenship/..``) navigates
    *through the deleted node* and finds nothing.  The paper already
    assumes id-addressability for insert compensation ("delete the node
    having the corresponding ID", §3.1); NodeRef extends that to a
    serializable location form so compensating operations can still be
    shipped between peers as ``<action>`` documents.
    """

    node_id_text: str
    document: str

    def __str__(self) -> str:
        return f"id({self.node_id_text}@{self.document})"


@dataclass(frozen=True)
class SelectQuery:
    """A parsed Select query.

    ``Select <select_paths> from <var> in <source> where <condition>;``

    ``source`` is an absolute path whose first step names the document
    root (``ATPList//player``); ``document_name`` is that first name,
    used by peers to route the query to the right repository document.
    """

    select_paths: Sequence[VarPath]
    var: str
    source: Union[PathExpr, NodeRef]
    where: Optional[Condition] = None
    #: The text :meth:`__str__` renders, kept from its first call: every
    #: action a service template binds without a where-literal shares its
    #: location, so a log writes that text once.
    _text: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    @property
    def document_name(self) -> str:
        if isinstance(self.source, NodeRef):
            return self.source.document
        first = self.source.steps[0]
        return first.name.local if first.name is not None else "*"

    def required_names(self) -> List[str]:
        """Element names the query can touch — drives lazy materialization.

        Lazy evaluation (§3.1) materializes only the embedded service
        calls "whose results are required for evaluating the query"; the
        materializer matches a call's result region against these names.
        """
        names: List[str] = []
        for vp in self.select_paths:
            names.extend(vp.path.child_names())
        names.extend(_condition_names(self.where))
        return names

    def __str__(self) -> str:
        if self._text is None:
            parts = ", ".join(map(str, self.select_paths))
            text = f"Select {parts} from {self.var} in {self.source}"
            if self.where is not None:
                text += f" where {self.where}"
            object.__setattr__(self, "_text", text + ";")
        return self._text


def _condition_names(condition: Optional[Condition]) -> List[str]:
    if condition is None:
        return []
    if isinstance(condition, Comparison):
        return condition.left.path.child_names()
    names: List[str] = []
    for part in condition.parts:
        names.extend(_condition_names(part))
    return names


@dataclass(frozen=True)
class UpdateAction:
    """An ``<action type="…">`` document (§3.1).

    ``data`` carries the ``<data>`` element's children as
    :class:`~repro.xmlstore.fragment.Fragment` values (for
    inserts/replaces): parsed, bound or logged, they belong to no
    document until an insert materializes them; ``location`` is the
    target query.  ``anchor`` optionally pins an insert before/after a
    specific node id ([16]'s ordered-insert semantics, used by
    order-preserving compensation); it is the pair
    ``("before"|"after", node_id_text)``.
    """

    action_type: ActionType
    location: SelectQuery
    data: Sequence[Fragment] = field(default_factory=tuple)
    anchor: Optional[tuple] = None
    #: When True, ``repro:id`` attributes inside the data fragments are
    #: re-adopted as real node ids on insertion — compensating inserts
    #: restore the identities of the nodes they bring back.
    rebind: bool = False

    def to_xml(self) -> str:
        """Serialize back to the paper's ``<action>`` document form.

        The result parses back with
        :func:`repro.query.parser.parse_action` — operations travel
        between peers in this form (peer-independent compensation sends
        compensating *definitions* across the network, §3.2).  Only a
        byte edge calls this: a log entry renders its text on first read.
        """
        parts = [f'<action type="{self.action_type.value}"']
        if self.anchor is not None:
            parts.append(f' anchor="{self.anchor[0]}:{self.anchor[1]}"')
        if self.rebind:
            parts.append(' rebind="true"')
        parts.append(">")
        for fragment in self.data:
            parts.append(f"<data>{fragment.text}</data>")
        location_text = (
            str(self.location).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        )
        parts.append(f"<location>{location_text}</location>")
        parts.append("</action>")
        return "".join(parts)

    def __str__(self) -> str:
        return self.to_xml()
