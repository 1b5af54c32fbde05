"""Per-document structural indexes over the XML node tree.

The paper's hot paths — ``<location>`` query evaluation (§3.1) and
compensation-log node lookups — all reduce to two access patterns:

* **id access** — "delete the node having the corresponding ID"; the
  :class:`~repro.xmlstore.nodes.Document` node map answers this in O(1);
* **tag access** — descendant steps like ``ATPList//player`` that a
  plain DOM answers by re-walking the subtree on every evaluation.

:class:`StructuralIndex` adds the tag half: a *postings* index from
element local name to the elements carrying it, maintained incrementally
as nodes are created and adopted.  ViP2P (PAPERS.md) gets its
XML-in-P2P performance from exactly this move — access structures that
are maintained, not recomputed per query.

Postings track *existence* (every element owned by the document,
attached or logically deleted) and are exact at all times.  *Attachment*
and *document order* are properties of the tree, so they are read off
the tree when a query asks, in two steps a Select runs apart:
:meth:`StructuralIndex.reachable` climbs parent pointers from each
posting candidate to the query's context (reach), and
:meth:`StructuralIndex.order_ranks` also orders the survivors by walking
only the branches that lead to them (Lugiez & Martin, PAPERS.md: a node
*is* its path of positions from the root).  A where-clause filters
between the two, so only its survivors are ordered.  Neither keeps
anything between queries: a ``//name`` step costs what it touches — the
candidates' ancestor chains and those ancestors' child lists — whether
or not the document changed since the last query.

The one structure that outlives a query is the *value postings* of
:meth:`StructuralIndex.value_join`, which answers the where-clause
``var/name = literal`` (``i/sku = X``: one child step) without looping
over each candidate's children: per element local name, built on the
first such lookup, a map from each element's logical text, and from that
text read as a number, to the elements carrying it (ViP2P, PAPERS.md,
answers value predicates from such access structures).  So a write has
something to invalidate, and the node layer does it: a name's maps are
dropped when an element of that
name is created, when the logical text of an element of that
name changes (the attach/detach climb of
:func:`repro.xmlstore.nodes._propagate_logical_count`), and on
:meth:`StructuralIndex.clear`.  Text is otherwise written only into a
fresh, detached clone before anything queries it (``_materialize`` in
:mod:`repro.query.update`), and ``tools/check_serialization_hygiene.py``
keeps it that way.  :meth:`StructuralIndex.seek` runs that join from the
hits' side, so it keeps one more thing per name: the ``_child_count``
total its meter charge needs, which the same climb adjusts.
"""

from __future__ import annotations

from math import isfinite
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.xmlstore.names import AXML_PREFIX, QName, is_axml_meta_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xmlstore.nodes import Element, NodeId
    from repro.xmlstore.path import TraversalMeter

_EMPTY: Dict[object, object] = {}
_CHILD_COUNT = attrgetter("_child_count")
_PARENT = attrgetter("parent")
_PREFIX = attrgetter("name.prefix")
#: Per local name: logical text → elements, and that text as a number
#: (``Comparison.matches``'s reading) → elements.
_ValueMaps = Tuple[Dict[str, List["Element"]], Dict[float, List["Element"]]]
#: A where-clause that holds only for elements with a logical child
#: ``name`` whose logical text equals ``literal`` (``number``: see
#: :meth:`StructuralIndex.value_join`), as ``(name, literal, number,
#: then)``; ``then`` filters those elements by the rest of the clause
#: (None: there is no rest).
Seek = Tuple[QName, str, Optional[float],
             Optional[Callable[[List["Element"]], List["Element"]]]]


class StructuralIndex:
    """Tag and value postings plus on-demand document ordering for one document."""

    __slots__ = ("_postings", "_values", "_seeks")

    def __init__(self) -> None:
        #: local name → insertion-ordered {NodeId: Element} postings.
        self._postings: Dict[str, Dict["NodeId", "Element"]] = {}
        #: local name → its value maps, built by :meth:`value_join` and
        #: dropped by the node layer when they may be stale.
        self._values: Dict[str, _ValueMaps] = {}
        #: local name → ``[under, prefix, total]`` once :meth:`seek` found
        #: every element of the name a child of ``under`` with ``prefix``:
        #: ``total`` is their ``_child_count`` sum, kept by the node layer's
        #: attach/detach climb, which drops the entry when an element of
        #: the name is attached or detached (creation drops it here).
        self._seeks: Dict[str, list] = {}

    # -- incremental maintenance (driven by the node layer) -----------------

    def add_element(self, element: "Element") -> None:
        """Register a newly created element under its local name."""
        local = element.name.local
        self._postings.setdefault(local, {})[element.node_id] = element
        if self._values:
            self._values.pop(local, None)
        if self._seeks:
            self._seeks.pop(local, None)

    def rekey_element(self, element: "Element", old_id: "NodeId") -> None:
        """Move an element's posting after :meth:`Document._adopt_id`."""
        bucket = self._postings.get(element.name.local)
        if bucket is not None:
            bucket.pop(old_id, None)
            bucket[element.node_id] = element

    def clear(self) -> None:
        """Drop everything; pairs with a wholesale node-map reset
        (snapshot rollback swaps the entire tree out from under us)."""
        self._postings.clear()
        self._values.clear()
        self._seeks.clear()

    # -- queries ------------------------------------------------------------

    def postings(self, local_name: str) -> Mapping["NodeId", "Element"]:
        """Every element of the document (attached or not) with that name."""
        return self._postings.get(local_name, _EMPTY)

    def reachable(
        self, candidates: Sequence["Element"], under: "Element"
    ) -> List["Element"]:
        """The *candidates* a logical descendant walk from *under* would
        reach, in the order given (the climbs of :meth:`order_ranks`,
        without its ordering walk)."""
        return _climb(candidates, under)[0]

    def order_ranks(
        self, candidates: Sequence["Element"], under: "Element"
    ) -> List["Element"]:
        """The *candidates* a logical descendant walk from *under* would
        reach, in the order it would reach them (*candidates* carry one
        name that is not call metadata: see :func:`_climb`).

        Two or more survivors of :func:`_climb` are put in document
        order by a pre-order walk from *under* that descends only into
        nodes some climb marked as leading to one.

        The two identity-keyed containers are looked up, never iterated:
        output order comes from child lists only.
        """
        survivors, leads_to_match, branching = _climb(candidates, under)
        if len(survivors) < 2:
            return survivors
        wanted = set(survivors)
        ordered: List["Element"] = []
        stack = [under]
        while stack:
            node = stack.pop()
            if node in wanted:
                ordered.append(node)
            if node in branching:
                stack.extend(filter(leads_to_match.get, reversed(node.children)))
        return ordered

    def value_join(
        self,
        step_name: QName,
        literal: str,
        number: Optional[float],
        candidates: List["Element"],
        meter: "TraversalMeter",
    ) -> List["Element"]:
        """The *candidates* with a logical child named *step_name* (not
        ``axml:``) whose logical text equals the where-clause literal, in
        the order given: ``PathExpr.compile_test``'s child loop for
        ``var/name = literal``, answered from the value postings.

        The literal is looked up (as a number when it reads as one:
        then only a number can equal it), each hit with the step's
        prefix is mapped to its logical parent — its parent, and on
        through ``axml:sc`` containers, which are transparent — and the
        candidates in that set are kept.  The meter is charged what the
        loop passes, every candidate's ``_child_count``.
        """
        holders = self._holders(step_name, literal, number)
        meter.touch(sum(map(_CHILD_COUNT, candidates)))
        return list(filter(holders.__contains__, candidates)) if holders else []

    def seek(
        self, name: QName, under: "Element", seek: "Seek", meter: "TraversalMeter"
    ) -> Optional[List["Element"]]:
        """:meth:`value_join` started from the value hits: the elements
        named *name* (not call metadata) below *under* that the where-clause
        *seek* keeps — or None unless every element of *name*'s local name
        is a child of *under* with *name*'s prefix.  Then the walk from
        *under* reaches each, so the meter is charged the value join over
        all of them (their ``_child_count`` sum, kept in ``_seeks``), and
        a hit's logical parent is a match by its local name alone.
        """
        if is_axml_meta_name(name):  # it reaches no element but *under* itself
            return None
        local, prefix = name.local, name.prefix
        memo = self._seeks.get(local)
        if memo is None or memo[0] is not under or memo[1] != prefix:
            elements = self._postings.get(local, _EMPTY).values()
            parents = list(map(_PARENT, elements))
            if (parents.count(under) != len(parents)
                    or list(map(_PREFIX, elements)).count(prefix) != len(parents)):
                return None
            memo = self._seeks[local] = [under, prefix, sum(map(_CHILD_COUNT, elements))]
        meter.touch(memo[2])
        step_name, literal, number, then = seek
        found = [node for node in self._holders(step_name, literal, number)
                 if node.name.local == local]
        return found if then is None else then(found)

    def _holders(
        self, step_name: QName, literal: str, number: Optional[float]
    ) -> Dict["Element", None]:
        """The logical parents of the elements named *step_name* whose
        logical text equals *literal* (read as *number* when not None),
        in hit order: each hit's parent, and on through ``axml:sc``
        containers, which are transparent."""
        local = step_name.local
        maps = self._values.get(local)
        if maps is None:
            maps = self._values[local] = _value_maps(self._postings.get(local, _EMPTY))
        hits = maps[0].get(literal) if number is None else maps[1].get(number)
        holders: Dict["Element", None] = {}
        prefix = step_name.prefix
        for hit in hits or ():
            if hit.name.prefix != prefix:
                continue
            node = hit.parent
            while node is not None:
                holders[node] = None
                name = node.name
                if name.local != "sc" or name.prefix != AXML_PREFIX:
                    break
                node = node.parent
        return holders

    # -- introspection ------------------------------------------------------

    def __repr__(self) -> str:
        entries = sum(len(bucket) for bucket in self._postings.values())
        return f"StructuralIndex(tags={len(self._postings)}, entries={entries})"


def _value_maps(postings: Mapping["NodeId", "Element"]) -> _ValueMaps:
    """The value maps of one name's *postings*: no Python call per
    element unless its text is not one text child (then
    :func:`~repro.xmlstore.path.logical_text` reads it)."""
    from repro.xmlstore.nodes import Text  # the node layer imports this module
    from repro.xmlstore.path import logical_text

    texts: Dict[str, List["Element"]] = {}
    numbers: Dict[float, List["Element"]] = {}
    for element in postings.values():
        children = element.children
        if not children:
            value = ""
        elif len(children) == 1 and children[0].__class__ is Text:
            value = children[0].value
        else:
            value = logical_text(element)
        texts.setdefault(value, []).append(element)
        if "_" in value:
            continue
        try:
            number = float(value)
        except ValueError:
            continue
        if isfinite(number):
            numbers.setdefault(number, []).append(element)
    return texts, numbers


def _climb(
    candidates: Sequence["Element"], under: "Element"
) -> Tuple[List["Element"], Dict[object, bool], Set[object]]:
    """The candidates that survive, in the order given, plus the verdict
    memo and the nodes whose children lead to a survivor.

    A candidate survives iff it is *under*, or its parent is, or climbing
    its parent pointers meets *under* before an ``axml:params``/handler
    element or a missing parent (logically deleted).  The candidates
    themselves are not call metadata: they carry one name, which the
    caller checks once.  Verdicts are memoised on every node a climb
    passes, so ancestors shared by several candidates are climbed once
    and a chain of same-name matches stays linear.
    """
    leads_to_match: Dict[object, bool] = {under: True}
    branching = {under}
    survivors: List["Element"] = []
    for candidate in candidates:
        node = candidate.parent
        if node is under:
            leads_to_match[candidate] = True
            survivors.append(candidate)
            continue
        verdict = leads_to_match.get(candidate)
        if verdict is None:
            trail = [candidate]
            while True:
                verdict = leads_to_match.get(node)
                if verdict is not None:
                    break
                if node is None or is_axml_meta_name(node.name):
                    verdict = False
                    break
                trail.append(node)
                node = node.parent
            for passed in trail:
                leads_to_match[passed] = verdict
            if verdict:
                for passed in trail:
                    branching.add(passed.parent)
        if verdict:
            survivors.append(candidate)
    return survivors, leads_to_match, branching
