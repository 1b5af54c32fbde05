"""Evaluation of Select queries against a document.

Evaluation is pure: it never mutates the document.  Materialization of
embedded service calls — the side-effecting half of AXML query
evaluation that makes query compensation necessary (§3.1) — is composed
*around* this function by :mod:`repro.axml.materialize`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

from repro.errors import QueryEvaluationError
from repro.obs.prof import PROF
from repro.query.ast import Comparison, Condition, NodeRef, SelectQuery
from repro.xmlstore.nodes import Document, Element, Node, NodeId, Text
from repro.xmlstore.path import NULL_METER, TraversalMeter, attribute_values_of


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
        """Text content of every selected node (convenience for tests)."""
        return [node.text_content() for node in self.all_nodes()]

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
    (:func:`_filter`), through paths compiled once (``PathExpr``).
    """
    if document.root is None:
        return QueryResult(query, [])
    candidates = _source_nodes(query, document, meter)
    if query.where is not None:
        candidates = _filter(query.where, candidates, meter)
    bindings: List[Binding] = []
    for node in candidates:
        binding = Binding(node)
        for vp in query.select_paths:
            binding.selected[str(vp)] = vp.path.evaluate(node, meter) if vp.path.steps else [node]
        bindings.append(binding)
    return QueryResult(query, bindings)


def _source_nodes(
    query: SelectQuery, document: Document, meter: TraversalMeter
) -> List[Element]:
    """Resolve the query source: a path, or an id reference (``id(..@..)``).

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
        return [node]
    return query.source.evaluate(document, meter)


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
    """Apply the left path to every candidate at once; keep a candidate
    when any node it reaches (or, for ``@name``, any value) matches."""
    attribute = comparison.left.path.attribute_name
    kept: List[Element] = []
    for candidate, reached in zip(candidates, comparison.left.path.each(candidates, meter)):
        if attribute is not None:
            values: Iterable[str] = attribute_values_of(reached, attribute)
        else:
            values = map(_text, reached)
        for value in values:
            if comparison.matches(value):
                kept.append(candidate)
                break
    return kept


def _text(node: Element) -> str:
    """``node.text_content()``, read directly off a lone text child."""
    children = node.children
    if len(children) == 1 and children[0].__class__ is Text:
        return children[0].value
    return node.text_content()
