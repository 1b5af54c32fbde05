"""Per-document structural indexes over the XML node tree.

The paper's hot paths — ``<location>`` query evaluation (§3.1) and
compensation-log node lookups — all reduce to two access patterns:

* **id access** — "delete the node having the corresponding ID"; the
  :class:`~repro.xmlstore.nodes.Document` node map answers this in O(1);
* **tag access** — descendant steps like ``ATPList//player`` that a
  plain DOM answers by re-walking the subtree on every evaluation.

:class:`StructuralIndex` adds the tag half: a *postings* index from
element local name to the elements carrying it, maintained incrementally
as nodes are created, adopted and vacuumed.  ViP2P (PAPERS.md) gets its
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
between the two, so only its survivors are ordered.  Nothing is cached,
so no mutation has anything to invalidate: a ``//name`` step costs what
it touches — the candidates' ancestor chains and those ancestors' child
lists — whether or not the document changed since the last query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Set, Tuple

from repro.xmlstore.names import is_axml_meta_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xmlstore.nodes import Element, NodeId

_EMPTY: Dict[object, object] = {}


class StructuralIndex:
    """Tag-name postings + on-demand document ordering for one document."""

    __slots__ = ("_postings",)

    def __init__(self) -> None:
        #: local name → insertion-ordered {NodeId: Element} postings.
        self._postings: Dict[str, Dict["NodeId", "Element"]] = {}

    # -- incremental maintenance (driven by the node layer) -----------------

    def add_element(self, element: "Element") -> None:
        """Register a newly created element under its local name."""
        self._postings.setdefault(element.name.local, {})[element.node_id] = element

    def rekey_element(self, element: "Element", old_id: "NodeId") -> None:
        """Move an element's posting after :meth:`Document._adopt_id`."""
        bucket = self._postings.get(element.name.local)
        if bucket is not None:
            bucket.pop(old_id, None)
            bucket[element.node_id] = element

    def drop_element(self, element: "Element") -> None:
        """Forget a vacuumed element."""
        bucket = self._postings.get(element.name.local)
        if bucket is not None:
            bucket.pop(element.node_id, None)

    def clear(self) -> None:
        """Drop everything; pairs with a wholesale node-map reset
        (snapshot rollback swaps the entire tree out from under us)."""
        self._postings.clear()

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

    # -- introspection ------------------------------------------------------

    def __repr__(self) -> str:
        entries = sum(len(bucket) for bucket in self._postings.values())
        return f"StructuralIndex(tags={len(self._postings)}, entries={entries})"


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
