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

A Select runs reach → filter → order: the where-clause (*keep*) sees a
``//name`` step's reachable candidates before its survivors are ordered,
or the step starts from value-postings hits (*seek*).  A comparison reads
:func:`logical_text`; ending in a child step, it is one test.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from math import isfinite
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.errors import QuerySyntaxError
from repro.obs.prof import PROF
from repro.xmlstore.index import Seek
from repro.xmlstore.names import (
    AXML_PREFIX, QName, is_axml_meta_name, is_sc_name, is_valid_name)
from repro.xmlstore.nodes import Document, Element, Node, Text


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
    _plan: Optional["_Plan"] = field(default=None, repr=False, compare=False)

    def __str__(self) -> str:
        out: List[str] = []
        for i, step in enumerate(self.steps):
            text = str(step)
            out.append(text if i == 0 or text.startswith("//") else "/" + text)
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
        keep: Optional[Callable[[List[Element]], List[Element]]] = None,
        seek: Optional[Seek] = None,
    ) -> List[Node]:
        """Evaluate against a context node (or node list), document order.

        A ``text`` final step returns the element nodes it was applied to;
        callers read :func:`logical_text` themselves — keeping the result
        homogeneous simplifies update targets.  *keep* (a where-clause)
        filters the result, keeping order; when the index answers a last
        ``//name`` step, it runs before the survivors are ordered (or
        ``StructuralIndex.seek`` starts that step from *seek*'s value hits).
        """
        functions, repeats, tail = self._plan or self._compile_steps()
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
        groups = _run(functions[start:len(functions) - (tail is not None)], [current], meter)
        nodes: List[Node] = groups[0]
        if tail is not None:
            reached = _indexed_descendants(tail, nodes, meter, keep, seek)
            if reached is not None:
                return reached  # from one context: no node twice
            nodes = _walk_descendants(tail, nodes, meter)
        if len(nodes) > 1 and (repeats[start] or not single):
            nodes = list({id(node): node for node in nodes}.values())
        return nodes if keep is None else keep(nodes)

    def each(
        self, contexts: Sequence[Element], meter: TraversalMeter = NULL_METER
    ) -> List[List[Element]]:
        """What the path reaches from each of *contexts* on its own: one
        list per context, in order, not deduplicated (a where-clause only
        asks whether any reached node matches).  Charges the meter what
        evaluating the path once per context would."""
        functions = (self._plan or self._compile_steps())[0]
        return _run(functions, [[context] for context in contexts], meter)

    def compile_test(
        self, compare: Callable[[Any, Any], bool], literal: str, number: Optional[float]
    ) -> Optional[Callable[[List[Element], TraversalMeter], List[Element]]]:
        """The where-clause ``path op literal`` as one filter over
        candidates, or None unless the path's last navigation step is a
        child step (``i/sku``, ``p/name/lastname``, ``i/sku/text()``).
        The earlier steps run as in :meth:`each`, the last as a test
        (:func:`_child_step`): same kept candidates, order and meter as
        :meth:`each` then ``Comparison.matches``."""
        functions = (self._plan or self._compile_steps())[0]
        steps = [step for step in self.steps if step.axis not in ("text", "attribute")]
        if not steps or steps[-1].axis != "child" or self.attribute_name is not None:
            return None
        test = _child_step(steps[-1], (compare, literal, number))
        earlier = functions[:-1]

        def apply(candidates: List[Element], meter: TraversalMeter) -> List[Element]:
            if earlier:
                groups: Any = _run(earlier, [[node] for node in candidates], meter)
            else:
                groups = zip(candidates)  # each candidate is its own group
            return [node for node, hit in zip(candidates, test(groups, meter)) if hit]

        return apply

    def _compile_steps(self) -> "_Plan":
        plan = _compile(self.steps)
        object.__setattr__(self, "_plan", plan)
        return plan


#: A compiled step: per-context node lists in, per-context results out.
_StepFunction = Callable[[List[List[Element]], TraversalMeter], List[List[Element]]]
#: Step functions; per start step 0 / 1, whether a node can repeat; a last
#: descendant step, which ``evaluate`` runs itself (to filter first).
_Plan = Tuple[Tuple[_StepFunction, ...], Tuple[bool, ...], Optional[Step]]


def _run(functions, groups: List[List[Element]], meter: TraversalMeter) -> List[List[Element]]:
    for function in functions:
        groups = function(groups, meter)
    return groups


def _compile(steps: Sequence[Step]) -> _Plan:
    """One function per navigation step (callers read a terminal
    ``text()`` / ``@name`` off the elements), plus, for start step 0 and
    1, whether the steps from there can reach a node twice from a single
    context: only a parent step, or a step after a descendant step
    (nested matches), can, since every node has one logical parent."""
    navigation = [step for step in steps if step.axis not in ("text", "attribute")]
    axes = [step.axis for step in navigation]
    # Evaluation starts at step 0, or at 1 when a document's root name
    # consumed the first step.
    repeats = tuple("parent" in axes[start:] or "descendant" in axes[start:-1] for start in (0, 1))
    tail = navigation[-1] if axes and axes[-1] == "descendant" else None
    return tuple(map(_compile_step, navigation)), repeats, tail


def _compile_step(step: Step) -> _StepFunction:
    if step.axis == "child":
        return _child_step(step)
    if step.axis == "descendant":
        return lambda groups, meter: [_descendants(step, group, meter) for group in groups]
    if step.axis == "parent":
        return _parent_step
    raise AssertionError(f"unknown axis {step.axis!r}")  # the parser makes no other


_NAN = float("nan")


def _child_step(step: Step, test: Optional[Tuple[Callable, str, Optional[float]]] = None):
    """``name`` or ``*``: one loop over each node's children, charging
    the meter once for every element child it passes.  A node with an
    ``axml:sc`` child (unless the test names ``axml:`` machinery itself)
    goes through :func:`_logical_children` instead.

    With *test* = ``(compare, literal, number)`` it returns, per group,
    whether a matching child's :func:`logical_text` passes it (charging
    the same, and comparing no more in a group once one has passed)."""
    any_name = step.name is None
    local = "" if any_name else step.name.local
    prefix = "" if any_name else step.name.prefix
    expand = prefix != AXML_PREFIX
    collect = test is None
    compare, literal, number = test or (None, "", None)

    def apply(groups, meter):
        touched = 0
        results = []
        out: List[Element] = []  # a test leaves it empty
        for group in groups:
            if collect:
                out = []
            hit = False
            for node in group:
                mark, seen, before = len(out), touched, hit
                children = node.children
                while True:
                    for child in children:
                        if child.__class__ is not Element:
                            continue
                        name = child.name
                        if expand and name.prefix == AXML_PREFIX and name.local == "sc":
                            break  # redo this node over its logical children
                        touched += 1
                        if not any_name and (name.local != local or name.prefix != prefix):
                            continue
                        if collect:
                            out.append(child)
                        elif not hit:
                            value = child.children
                            if len(value) == 1 and value[0].__class__ is Text:
                                value = value[0].value
                            else:
                                value = logical_text(child)
                            # Comparison.matches, inlined: no call per node.
                            num = _NAN  # a string, unless both sides are numbers
                            if number is not None and "_" not in value:
                                try:
                                    num = float(value)
                                except ValueError:
                                    pass
                            hit = compare(num, number) if isfinite(num) else compare(value, literal)
                    else:
                        break
                    del out[mark:]
                    touched, hit = seen, before
                    children = _logical_children(node, step)
            results.append(out if collect else hit)
        meter.touch(touched)
        return results

    return apply


def _parent_step(groups: List[List[Element]], meter: TraversalMeter) -> List[List[Element]]:
    meter.touch(sum(len(group) for group in groups))
    return [[node.parent for node in group if node.parent is not None] for group in groups]


def _descendants(step: Step, context: List[Element], meter: TraversalMeter) -> List[Element]:
    """``//name`` or ``//*`` from one context list: index, else walk."""
    indexed = _indexed_descendants(step, context, meter)
    return indexed if indexed is not None else _walk_descendants(step, context, meter)


def _walk_descendants(step: Step, context: List[Element], meter: TraversalMeter) -> List[Element]:
    PROF.incr("query_tree_walks")
    result: List[Element] = []
    for node in context:
        descendants = _logical_descendants(node)
        PROF.incr("query_walk_nodes", len(descendants))
        meter.touch(len(descendants))
        result.extend(d for d in descendants if _name_matches(step, d))
    return result


def _indexed_descendants(
    step: Step, context: List[Element], meter: TraversalMeter, keep: Optional[Callable] = None,
    seek: Optional[Seek] = None,
) -> Optional[List[Element]]:
    """Answer a named descendant step from the structural index, or
    None (the walk answers) for ``*``, several contexts (walk order is
    per context) or postings larger than the context's logical subtree.
    The context may be any element: the index climbs no further.  The
    meter is charged what the walk would touch, so the paper's traversal
    cost (§3.2, E7) does not depend on which ran.  With *keep*, the
    reachable candidates go through it in postings order; only two or
    more survivors are put in document order.  ``StructuralIndex.seek``
    answers instead when it can (same survivors and meter)."""
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
    survivors = None if seek is None else index.seek(step.name, ctx, seek, meter)
    if survivors is None:
        prefix = step.name.prefix
        candidates = [element for element in postings.values() if element.name.prefix == prefix]
        if is_axml_meta_name(step.name):  # once per step: every candidate has the name
            candidates = [element for element in candidates if element is ctx]
        if keep is None:
            return index.order_ranks(candidates, ctx)
        survivors = keep(index.reachable(candidates, ctx))
    return index.order_ranks(survivors, ctx) if len(survivors) > 1 else survivors


# AXML transparency (paper §1/§3.1): an embedded call's results stand where
# its ``axml:sc`` sits (``p/points`` finds ``<axml:sc …><points>890</points>
# </axml:sc>``); call *metadata* (params, handlers) is never content, and an
# explicit ``axml:`` name test addresses the machinery itself.  The
# predicates live in :mod:`repro.xmlstore.names`, shared with the index.


def _logical_children(node: Element, step: Step) -> List[Element]:
    """Direct children with sc containers expanded (unless explicitly named)."""
    explicit_axml = step.name is not None and step.name.prefix == "axml"
    out: List[Element] = []
    stack = [child for child in reversed(node.children) if isinstance(child, Element)]
    while stack:
        child = stack.pop()
        if is_sc_name(child.name) and not explicit_axml:
            stack.extend(grand for grand in reversed(child.children)
                         if isinstance(grand, Element) and not is_axml_meta_name(grand.name))
        else:
            out.append(child)
    return out


def _logical_descendants(node: Element) -> List[Element]:
    """Descendant-or-self elements, skipping axml metadata subtrees: an
    ``axml:sc`` is yielded (``//axml:sc`` works), its params/handlers not."""
    out: List[Element] = []
    stack: List[Element] = [node]
    while stack:
        current = stack.pop()
        out.append(current)
        for child in reversed(current.children):
            if isinstance(child, Element) and not is_axml_meta_name(child.name):
                stack.append(child)
    return out


def logical_text(node: Node) -> str:
    """The text a query reads off *node*: its subtree's text with
    ``axml:sc`` transparent and call metadata (params, handlers) skipped.
    ``text_content()`` reads the machinery too: it serves the log."""
    if node.__class__ is Text:
        return node.value
    children = node.children
    if len(children) == 1 and children[0].__class__ is Text:
        return children[0].value
    parts: List[str] = []
    pending = children[::-1]
    while pending:
        child = pending.pop()
        if child.__class__ is Text:
            parts.append(child.value)
        elif not is_axml_meta_name(child.name):
            pending.extend(reversed(child.children))
    return "".join(parts)


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
    ``//player`` alone has ``[descendant player]``).  One expression is
    shared per text (:func:`_parsed_path`), so its plan compiles once.
    """
    return _parsed_path(text)


@lru_cache(maxsize=4096)  # a PathExpr is frozen but for its own plan; errors are not cached
def _parsed_path(text: str) -> PathExpr:
    text = text.strip()
    if not text:
        raise QuerySyntaxError("empty path expression")
    parts = re.split("(//?)", text)  # step, separator, step, …
    descendant = False
    if not parts[0]:  # a leading separator
        descendant, parts = parts[1] == "//", parts[2:]
        if parts == [""]:
            raise QuerySyntaxError(f"no steps in path: {text!r}")
    steps: List[Step] = []
    for k in range(0, len(parts), 2):
        if k and k == len(parts) - 1 and not parts[k]:
            raise QuerySyntaxError(f"path ends with a separator: {text!r}")
        steps.append(_make_step(parts[k].strip(), descendant, text))
        descendant = k + 1 < len(parts) and parts[k + 1] == "//"
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
    if not is_valid_name(name.local):
        raise QuerySyntaxError(f"invalid step name {token!r} in {full_text!r}")
    return Step(axis, name)
