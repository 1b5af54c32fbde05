"""Evaluation of Select queries against a document.

Evaluation is pure: it never mutates the document.  Materialization of
embedded service calls — the side-effecting half of AXML query
evaluation that makes query compensation necessary (§3.1) — is composed
*around* this function by :mod:`repro.axml.materialize`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.errors import QueryEvaluationError
from repro.obs.prof import PROF
from repro.query.ast import Comparison, Condition, NodeRef, SelectQuery
from repro.xmlstore.nodes import Document, Element, Node, NodeId
from repro.xmlstore.path import NULL_METER, TraversalMeter, logical_text


@dataclass
class Binding:
    """One row of the result: the bound element plus its selected nodes."""

    context: Element
    selected: Dict[str, List[Node]] = field(default_factory=dict)

    def nodes(self) -> List[Node]:
        """All selected nodes of this binding, in select-list order."""
        out: List[Node] = []
        for nodes in self.selected.values():
            out.extend(nodes)
        return out


@dataclass
class QueryResult:
    """The result of evaluating a Select query."""

    query: SelectQuery
    bindings: List[Binding]

    def all_nodes(self) -> List[Node]:
        """Every selected node across bindings, document order per binding."""
        out: List[Node] = []
        for binding in self.bindings:
            out.extend(binding.nodes())
        return out

    def texts(self) -> List[str]:
        """The logical text of every selected node (:func:`logical_text`:
        call metadata is not content)."""
        return [logical_text(node) for node in self.all_nodes()]

    def __len__(self) -> int:
        return len(self.bindings)


def evaluate_select(
    query: SelectQuery,
    document: Document,
    meter: TraversalMeter = NULL_METER,
) -> QueryResult:
    """Evaluate *query* against *document* and return its bindings.

    The source path binds ``query.var`` to each matching element; the
    ``where`` condition filters bindings (a comparison holds if *any*
    node reached by its left path satisfies it — existential semantics);
    each select path is then evaluated relative to every surviving
    binding.  The where-clause filters all candidates at once
    (:func:`_filter`), through paths compiled once (``PathExpr``), and
    before they are put in document order: reach → filter → order (see
    ``PathExpr.evaluate``).  The filter is per candidate and its meter
    charges are sums, so the order it sees changes nothing.
    """
    if document.root is None:
        return QueryResult(query, [])
    where = query.where
    keep = None if where is None else (lambda nodes: _filter(where, nodes, meter))
    bindings: List[Binding] = []
    for node in _source_nodes(query, document, meter, keep):
        binding = Binding(node)
        for vp in query.select_paths:
            binding.selected[str(vp)] = vp.path.evaluate(node, meter) if vp.path.steps else [node]
        bindings.append(binding)
    return QueryResult(query, bindings)


def _source_nodes(
    query: SelectQuery,
    document: Document,
    meter: TraversalMeter,
    keep: Optional[Callable[[List[Element]], List[Element]]],
) -> List[Element]:
    """Resolve the query source, a path or an id reference
    (``id(..@..)``), and filter it through *keep* (the where-clause).

    An id reference that no longer resolves — or resolves to a detached
    node — yields no bindings rather than an error: a compensating
    operation whose target vanished must be a no-op, not a crash.
    """
    if isinstance(query.source, NodeRef):
        node_id = NodeId.parse(query.source.node_id_text)
        PROF.incr("comp_log_lookups")
        if not document.has_node(node_id):
            return []
        node = document.get_node(node_id)
        meter.touch()
        if not isinstance(node, Element) or not node.is_attached():
            return []
        return [node] if keep is None else keep([node])
    return query.source.evaluate(document, meter, keep)


def _filter(
    condition: Condition, candidates: List[Element], meter: TraversalMeter
) -> List[Element]:
    """The *candidates* *condition* holds for, in order.

    Each part sees only the candidates a candidate-by-candidate short
    circuit would evaluate it on: ``and`` filters the survivors of its
    previous parts, ``or`` runs a part only on the candidates every
    earlier part rejected.  So bindings, their order and the meter total
    are what evaluating the clause candidate by candidate gives.
    """
    if not candidates:
        return candidates
    if isinstance(condition, Comparison):
        return _comparison(condition, candidates, meter)
    if condition.op == "and":
        for part in condition.parts:
            candidates = _filter(part, candidates, meter)
        return candidates
    if condition.op == "or":
        passed: Set[int] = set()
        remaining = candidates
        for part in condition.parts:
            passed.update(map(id, _filter(part, remaining, meter)))
            remaining = [node for node in remaining if id(node) not in passed]
        return [node for node in candidates if id(node) in passed]
    raise QueryEvaluationError(f"unknown boolean operator {condition.op!r}")


def _comparison(
    comparison: Comparison, candidates: List[Element], meter: TraversalMeter
) -> List[Element]:
    """Keep a candidate when any node its left path reaches (or, for
    ``@name``, any value) matches: one filter, compiled on first use."""
    plan = comparison._plan
    if plan is None:
        plan = _compile_comparison(comparison)
        object.__setattr__(comparison, "_plan", plan)
    return plan(candidates, meter)


def _compile_comparison(
    comparison: Comparison,
) -> Callable[[List[Element], TraversalMeter], List[Element]]:
    """The left path's own test when its last step is a child step
    (``PathExpr.compile_test``); otherwise apply the path to every
    candidate at once and compare the values it reaches."""
    path = comparison.left.path
    if comparison._compare is not None:  # an unknown operator raises below
        test = path.compile_test(comparison._compare, comparison.literal, comparison._number)
        if test is not None:
            return test
    attribute = path.attribute_name

    def apply(candidates: List[Element], meter: TraversalMeter) -> List[Element]:
        kept: List[Element] = []
        for candidate, reached in zip(candidates, path.each(candidates, meter)):
            if attribute is not None:
                values: Iterable[str] = attribute_values_of(reached, attribute)
            else:
                values = map(logical_text, reached)
            for value in values:
                if comparison.matches(value):
                    kept.append(candidate)
                    break
        return kept

    return apply


def attribute_values_of(owners: Sequence[Element], name: str) -> List[str]:
    """The values of attribute *name* on *owners*, in order (an owner
    without it is skipped; ``*`` yields every value): what a path ending
    in ``@name`` selects from the elements its other steps reach."""
    if name == "*":
        return [value for owner in owners for value in owner.attributes.values()]
    return [owner.attributes[name] for owner in owners if name in owner.attributes]
