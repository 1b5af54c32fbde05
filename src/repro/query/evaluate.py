"""Evaluation of Select queries against a document.

Evaluation is pure: it never mutates the document.  Materialization of
embedded service calls — the side-effecting half of AXML query
evaluation that makes query compensation necessary (§3.1) — is composed
*around* this function by :mod:`repro.axml.materialize`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import QueryEvaluationError
from repro.obs.prof import PROF
from repro.query.ast import (
    Comparison,
    Condition,
    NodeRef,
    SelectQuery,
    VarPath,
)
from repro.xmlstore.nodes import NodeId
from repro.xmlstore.nodes import Document, Element, Node
from repro.xmlstore.path import NULL_METER, TraversalMeter


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
    binding.
    """
    if document.root is None:
        return QueryResult(query, [])
    candidates = _source_nodes(query, document, meter)
    bindings: List[Binding] = []
    for node in candidates:
        if not isinstance(node, Element):
            continue
        if query.where is not None and not _condition_holds(query.where, node, meter):
            continue
        binding = Binding(node)
        for vp in query.select_paths:
            binding.selected[str(vp)] = _eval_varpath(vp, node, meter)
        bindings.append(binding)
    return QueryResult(query, bindings)


def _source_nodes(
    query: SelectQuery, document: Document, meter: TraversalMeter
) -> List[Node]:
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


def _eval_varpath(vp: VarPath, context: Element, meter: TraversalMeter) -> List[Node]:
    if not vp.path.steps:
        return [context]
    return vp.path.evaluate(context, meter)


def _condition_holds(
    condition: Condition, context: Element, meter: TraversalMeter
) -> bool:
    if isinstance(condition, Comparison):
        if condition.left.path.steps and condition.left.path.attribute_name:
            # Attribute comparison: ``p/@rank = 1`` (paper documents are
            # attribute-rich).  Existential over the reached attributes.
            values = condition.left.path.attribute_values(context, meter)
            return any(condition.matches(value) for value in values)
        nodes = _eval_varpath(condition.left, context, meter)
        return any(condition.matches(node.text_content()) for node in nodes)
    if condition.op == "and":
        return all(_condition_holds(part, context, meter) for part in condition.parts)
    if condition.op == "or":
        return any(_condition_holds(part, context, meter) for part in condition.parts)
    raise QueryEvaluationError(f"unknown boolean operator {condition.op!r}")
