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

A path compiles once, on its first evaluation, into one function per
step, chosen by axis and name test and memoized on the frozen
expression.  A step charges the meter once, with the count a node-by-node
walk would have charged; :meth:`PathExpr.each` runs the same functions
over many contexts at a time, each kept apart (a where-clause's filter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.errors import QuerySyntaxError
from repro.obs.prof import PROF
from repro.xmlstore.names import (
    AXML_PREFIX,
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
    #: The compiled steps, memoized on first evaluation (see ``_compile``).
    _plan: Optional[Tuple[Tuple["_StepFunction", ...], Tuple[bool, ...]]] = field(
        default=None, repr=False, compare=False
    )

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
        functions, repeats = self._plan or self._compile_steps()
        start = 0
        if isinstance(context, Document):
            current: List[Element] = [context.root] if context.root is not None else []
            # Absolute-path convention (paper's ``ATPList//player``): a
            # leading child step names the root element itself — or the
            # *document* (distributed fragments keep their subtree's root
            # name but are addressed by their document name).
            if current and self.steps and self.steps[0].axis == "child":
                meter.touch()
                step_name = self.steps[0].name
                if _name_matches(self.steps[0], current[0]) or (
                    step_name is not None
                    and not step_name.prefix
                    and step_name.local == context.name
                ):
                    start = 1
                else:
                    current = []
            single = True
        elif isinstance(context, Element):
            current, single = [context], True
        else:
            current, single = list(context), False
        groups = [current]
        for function in functions[start:]:
            groups = function(groups, meter)
        nodes: List[Node] = groups[0]
        if len(nodes) > 1 and (repeats[start] or not single):
            nodes = list({id(node): node for node in nodes}.values())
        return nodes

    def each(
        self, contexts: Sequence[Element], meter: TraversalMeter = NULL_METER
    ) -> List[List[Element]]:
        """What the path reaches from each of *contexts* on its own: one
        list per context, in order, not deduplicated (a where-clause only
        asks whether any reached node matches).  Charges the meter what
        evaluating the path once per context would."""
        groups = [[context] for context in contexts]
        for function in (self._plan or self._compile_steps())[0]:
            groups = function(groups, meter)
        return groups

    def _compile_steps(self) -> Tuple[Tuple["_StepFunction", ...], Tuple[bool, ...]]:
        plan = _compile(self.steps)
        object.__setattr__(self, "_plan", plan)
        return plan


def attribute_values_of(owners: Sequence[Element], name: str) -> List[str]:
    """The values of attribute *name* on *owners*, in order (an owner
    without it is skipped; ``*`` yields every value): what a path ending
    in ``@name`` selects from the elements its other steps reach."""
    if name == "*":
        return [value for owner in owners for value in owner.attributes.values()]
    return [owner.attributes[name] for owner in owners if name in owner.attributes]


#: A compiled step: per-context node lists in, per-context results out.
_StepFunction = Callable[[List[List[Element]], TraversalMeter], List[List[Element]]]


def _compile(steps: Sequence[Step]) -> Tuple[Tuple[_StepFunction, ...], Tuple[bool, ...]]:
    """One function per navigation step (a terminal ``text()`` / ``@name``
    step ends the walk: callers read the values off the elements), plus,
    for start step 0 and 1, whether the steps from there can reach a
    node twice from a single context.  Only a parent step, or a step after
    a descendant step (nested matches), can; a child chain cannot, since
    every node has one logical parent."""
    functions: List[_StepFunction] = []
    axes: List[str] = []
    for step in steps:
        if step.axis in ("text", "attribute"):
            break
        functions.append(_compile_step(step))
        axes.append(step.axis)
    # Evaluation starts at step 0, or at 1 when a document's root name
    # consumed the first step.
    repeats = tuple("parent" in axes[start:] or "descendant" in axes[start:-1] for start in (0, 1))
    return tuple(functions), repeats


def _compile_step(step: Step) -> _StepFunction:
    if step.axis == "child":
        return _child_step(step)
    if step.axis == "descendant":
        return lambda groups, meter: [_descendants(step, group, meter) for group in groups]
    if step.axis == "parent":
        return _parent_step
    raise AssertionError(f"unknown axis {step.axis!r}")  # the parser makes no other


def _child_step(step: Step) -> _StepFunction:
    """``name`` or ``*``: one loop over each node's children, charging
    the meter once for every element child it passes.  A node with an
    ``axml:sc`` child (unless the test names ``axml:`` machinery itself)
    goes through :func:`_logical_children` instead."""
    any_name = step.name is None
    local = "" if any_name else step.name.local
    prefix = "" if any_name else step.name.prefix
    expand = prefix != AXML_PREFIX

    def apply(groups: List[List[Element]], meter: TraversalMeter) -> List[List[Element]]:
        touched = 0
        results = []
        for group in groups:
            out: List[Element] = []
            for node in group:
                mark, seen = len(out), touched
                for child in node.children:
                    if child.__class__ is not Element:
                        continue
                    name = child.name
                    if expand and name.prefix == AXML_PREFIX and name.local == "sc":
                        break
                    touched += 1
                    if any_name or (name.local == local and name.prefix == prefix):
                        out.append(child)
                else:
                    continue
                del out[mark:]
                touched = seen
                for child in _logical_children(node, step):
                    touched += 1
                    if _name_matches(step, child):
                        out.append(child)
            results.append(out)
        meter.touch(touched)
        return results

    return apply


def _parent_step(groups: List[List[Element]], meter: TraversalMeter) -> List[List[Element]]:
    meter.touch(sum(len(group) for group in groups))
    return [[node.parent for node in group if node.parent is not None] for group in groups]


def _descendants(step: Step, context: List[Element], meter: TraversalMeter) -> List[Element]:
    """``//name`` or ``//*`` from one context list: the index when it
    answers, else a walk of each node's logical subtree."""
    indexed = _indexed_descendants(step, context, meter)
    if indexed is not None:
        return indexed
    PROF.incr("query_tree_walks")
    result: List[Element] = []
    for node in context:
        descendants = _logical_descendants(node)
        PROF.incr("query_walk_nodes", len(descendants))
        meter.touch(len(descendants))
        result.extend(d for d in descendants if _name_matches(step, d))
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
    prefix = step.name.prefix
    return index.order_ranks(
        [element for element in postings.values() if element.name.prefix == prefix],
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
