"""Path expressions over the node tree.

This is the navigation core under the paper's query language: expressions
like ``ATPList//player``, ``p/citizenship``, ``p/name/lastname`` and the
parent step ``p/citizenship/..`` used by compensation construction
(§3.1).  Supported steps:

* ``name`` — child elements with that (possibly prefixed) name,
* ``*`` — any child element,
* ``//name`` — descendant-or-self elements with that name,
* ``..`` — the parent element,
* ``text()`` — the concatenated text content (terminal step).

Evaluation counts the nodes it traverses through an optional
:class:`TraversalMeter`; the paper (§3.2) uses "the number of XML nodes
affected (traversed)" as the cost measure of forward vs backward
recovery, and experiment E7 reads this meter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.errors import QuerySyntaxError
from repro.obs.prof import PROF
from repro.xmlstore.names import (
    QName,
    is_axml_meta_name,
    is_sc_name,
    is_valid_name,
)
from repro.xmlstore.nodes import Document, Element, Node


class TraversalMeter:
    """Counts nodes touched during path evaluation (paper's cost measure)."""

    __slots__ = ("nodes_traversed",)

    def __init__(self) -> None:
        self.nodes_traversed = 0

    def touch(self, count: int = 1) -> None:
        self.nodes_traversed += count

    def reset(self) -> None:
        self.nodes_traversed = 0


#: A meter that is always available so call sites never branch on None.
NULL_METER = TraversalMeter()


@dataclass(frozen=True)
class Step:
    """One step of a path.

    ``axis`` is ``"child"``, ``"descendant"``, ``"parent"``, ``"text"``
    or ``"attribute"`` (terminal, written ``@name``); ``name`` is the
    element/attribute-name test (``None`` means ``*``).
    """

    axis: str
    name: Optional[QName] = None

    def __str__(self) -> str:
        if self.axis == "parent":
            return ".."
        if self.axis == "text":
            return "text()"
        if self.axis == "attribute":
            return f"@{self.name.text if self.name is not None else '*'}"
        label = self.name.text if self.name is not None else "*"
        return f"//{label}" if self.axis == "descendant" else label


@dataclass(frozen=True)
class PathExpr:
    """A parsed path: a sequence of steps, evaluated left to right."""

    steps: Sequence[Step] = field(default_factory=tuple)

    def __str__(self) -> str:
        out: List[str] = []
        for i, step in enumerate(self.steps):
            text = str(step)
            if i == 0 or text.startswith("//"):
                out.append(text)
            else:
                out.append("/" + text)
        return "".join(out)

    @property
    def attribute_name(self) -> Optional[str]:
        """The attribute a terminal ``@name`` step selects, or None."""
        if self.steps and self.steps[-1].axis == "attribute":
            name = self.steps[-1].name
            return name.local if name is not None else "*"
        return None

    def attribute_values(
        self,
        context: Union[Document, Element, Sequence[Element]],
        meter: TraversalMeter = NULL_METER,
    ) -> List[str]:
        """Evaluate a path ending in ``@name``: the attribute values of
        the elements the prefix reaches (missing attributes are skipped;
        ``@*`` yields every attribute value)."""
        attr = self.attribute_name
        if attr is None:
            raise QuerySyntaxError(f"path {self} does not end in an attribute step")
        owners = self.evaluate(context, meter)
        values: List[str] = []
        for owner in owners:
            if not isinstance(owner, Element):
                continue
            if attr == "*":
                values.extend(owner.attributes.values())
            elif attr in owner.attributes:
                values.append(owner.attributes[attr])
        return values

    def child_names(self) -> List[str]:
        """Local names of the child steps (used by lazy materialization)."""
        return [step.name.local for step in self.steps
                if step.axis in ("child", "descendant") and step.name is not None]

    def evaluate(
        self,
        context: Union[Document, Element, Sequence[Element]],
        meter: TraversalMeter = NULL_METER,
    ) -> List[Node]:
        """Evaluate against a context node (or node list), document order.

        A ``text`` final step returns the element nodes it was applied to;
        callers read ``text_content()`` themselves — keeping the result
        homogeneous simplifies update targets.
        """
        steps = list(self.steps)
        if isinstance(context, Document):
            current: List[Element] = [context.root] if context.root is not None else []
            # Absolute-path convention (paper's ``ATPList//player``): a
            # leading child step names the root element itself — or the
            # *document* (distributed fragments keep their subtree's root
            # name but are addressed by their document name).
            if current and steps and steps[0].axis == "child":
                meter.touch()
                step_name = steps[0].name
                if _name_matches(steps[0], current[0]) or (
                    step_name is not None
                    and not step_name.prefix
                    and step_name.local == context.name
                ):
                    steps = steps[1:]
                else:
                    current = []
        elif isinstance(context, Element):
            current = [context]
        else:
            current = list(context)
        for step in steps:
            if step.axis in ("text", "attribute"):
                # Terminal value steps: the owning elements are returned;
                # callers extract text_content()/attribute values.
                break
            current = _apply_step(step, current, meter)
        return _dedupe(current)


def _apply_step(
    step: Step, context: List[Element], meter: TraversalMeter
) -> List[Element]:
    result: List[Element] = []
    if step.axis == "child":
        for node in context:
            for child in _logical_children(node, step):
                meter.touch()
                if _name_matches(step, child):
                    result.append(child)
    elif step.axis == "descendant":
        indexed = _indexed_descendants(step, context, meter)
        if indexed is not None:
            return indexed
        PROF.incr("query_tree_walks")
        for node in context:
            descendants = _logical_descendants(node)
            PROF.incr("query_walk_nodes", len(descendants))
            for descendant in descendants:
                meter.touch()
                if _name_matches(step, descendant):
                    result.append(descendant)
    elif step.axis == "parent":
        for node in context:
            meter.touch()
            if node.parent is not None:
                result.append(node.parent)
    else:  # pragma: no cover - parser never produces other axes
        raise AssertionError(f"unknown axis {step.axis!r}")
    return result


def _indexed_descendants(
    step: Step, context: List[Element], meter: TraversalMeter
) -> Optional[List[Element]]:
    """Answer a named descendant step from the document's structural index.

    Returns None (fall back to the subtree walk) when the fast path does
    not apply: the name test is ``*``, there are multiple context nodes
    (walk order is per-context, not global), or the postings list is
    larger than the context's logical subtree (walking is cheaper).
    The context may be any element of the document — detached, or
    inside call machinery: ``order_ranks`` climbs no further than it.
    When the index answers, the traversal meter is charged the
    *logical* visit count — the same number of nodes the walk would have
    touched — so the paper's traversal-cost experiments (§3.2, E7) keep
    their semantics regardless of which path ran.
    """
    if step.name is None or len(context) != 1:
        return None
    ctx = context[0]
    index = ctx.document.index
    postings = index.postings(step.name.local)
    logical = ctx._logical_count
    if len(postings) > logical:
        PROF.incr("query_index_skips")
        return None
    meter.touch(logical)
    PROF.incr("query_index_hits")
    return index.order_ranks(
        [element for element in postings.values() if _name_matches(step, element)],
        ctx,
    )


# AXML transparency (paper §1/§3.1): the results of an embedded service
# call logically stand where the ``axml:sc`` element sits, so ``p/points``
# must find ``<points>`` inside ``<axml:sc …><points>890</points></axml:sc>``.
# Conversely, call *metadata* (params, fault handlers) is never document
# content.  An explicit ``axml:``-prefixed name test still addresses the
# machinery itself.  The predicates live in :mod:`repro.xmlstore.names`
# so the structural index prunes exactly the same subtrees.


def _logical_children(node: Element, step: Step) -> List[Element]:
    """Direct children with sc containers expanded (unless explicitly named)."""
    explicit_axml = step.name is not None and step.name.prefix == "axml"
    out: List[Element] = []
    stack = [child for child in reversed(node.children) if isinstance(child, Element)]
    while stack:
        child = stack.pop()
        if is_sc_name(child.name) and not explicit_axml:
            results = [
                grand
                for grand in child.children
                if isinstance(grand, Element) and not is_axml_meta_name(grand.name)
            ]
            stack.extend(reversed(results))
            continue
        out.append(child)
    return out


def _logical_descendants(node: Element) -> List[Element]:
    """Descendant-or-self elements, skipping axml metadata subtrees.

    ``axml:sc`` elements themselves are yielded (so ``//axml:sc`` works)
    but their params/handler regions are not content.
    """
    out: List[Element] = []
    stack: List[Element] = [node]
    while stack:
        current = stack.pop()
        out.append(current)
        for child in reversed(current.children):
            if isinstance(child, Element) and not is_axml_meta_name(child.name):
                stack.append(child)
    return out


def _name_matches(step: Step, element: Element) -> bool:
    if step.name is None:
        return True
    if step.name.prefix:
        return element.name == step.name
    return element.name.local == step.name.local and not element.name.prefix


def _dedupe(nodes: List[Element]) -> List[Node]:
    seen = set()
    out: List[Node] = []
    for node in nodes:
        if node.node_id not in seen:
            seen.add(node.node_id)
            out.append(node)
    return out


def parse_path(text: str) -> PathExpr:
    """Parse a path expression string into a :class:`PathExpr`.

    Grammar (informal)::

        path  ::= step (separator step)*
        step  ::= name | '*' | '..' | 'text()'
        separator ::= '/' | '//'

    A leading ``//`` makes the first step a descendant step (e.g.
    ``ATPList//player`` has steps ``[child ATPList, descendant player]``;
    ``//player`` alone has ``[descendant player]``).
    """
    text = text.strip()
    if not text:
        raise QuerySyntaxError("empty path expression")
    steps: List[Step] = []
    pos = 0
    descendant_next = False
    if text.startswith("//"):
        descendant_next = True
        pos = 2
    elif text.startswith("/"):
        pos = 1
    while pos < len(text):
        end = pos
        while end < len(text) and text[end] != "/":
            end += 1
        token = text[pos:end].strip()
        steps.append(_make_step(token, descendant_next, text))
        descendant_next = False
        pos = end
        if pos < len(text):
            if text.startswith("//", pos):
                descendant_next = True
                pos += 2
            else:
                pos += 1
            if pos >= len(text):
                raise QuerySyntaxError(f"path ends with a separator: {text!r}")
    if not steps:
        raise QuerySyntaxError(f"no steps in path: {text!r}")
    for step in steps[:-1]:
        if step.axis in ("text", "attribute"):
            raise QuerySyntaxError(
                f"'{step}' must be the final step of a path: {text!r}"
            )
    return PathExpr(tuple(steps))


def _make_step(token: str, descendant: bool, full_text: str) -> Step:
    if not token:
        raise QuerySyntaxError(f"empty step in path: {full_text!r}")
    if token == "..":
        if descendant:
            raise QuerySyntaxError(f"'//..' is not a valid step in {full_text!r}")
        return Step("parent")
    if token == "text()":
        return Step("text")
    if token.startswith("@"):
        if descendant:
            raise QuerySyntaxError(f"'//@' is not a valid step in {full_text!r}")
        attr = token[1:]
        if attr == "*":
            return Step("attribute")
        if not is_valid_name(attr):
            raise QuerySyntaxError(f"invalid attribute name {token!r} in {full_text!r}")
        return Step("attribute", QName.parse(attr))
    axis = "descendant" if descendant else "child"
    if token == "*":
        return Step(axis)
    name = QName.parse(token)
    check = name.local
    if not is_valid_name(check):
        raise QuerySyntaxError(f"invalid step name {token!r} in {full_text!r}")
    return Step(axis, name)
