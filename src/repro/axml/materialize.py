"""Materialization of embedded service calls.

Materializing a call means: resolve nested parameters, invoke the
service, and apply the results to the document under the call's mode
(``replace`` swaps the result region, ``merge`` appends).  Every tree
mutation is captured as the same change records explicit updates
produce, because §3.1's central argument is that *query* evaluation
mutates the document through exactly this path — so query compensation
is built from these records at run time.

The engine is transport-agnostic: it invokes services through a
*resolver* callable, which the P2P layer implements with real (simulated)
network messages so that peer disconnection can strike mid-materialization.

:func:`run_action` is the one place an operation runs: an origin's
``submit`` and a query service both go through it, and log what it
returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.axml.document import AXMLDocument
from repro.axml.service_call import ServiceCall
from repro.errors import MaterializationError
from repro.outcome import Outcome
from repro.query.ast import ActionType, SelectQuery, UpdateAction
from repro.query.evaluate import QueryResult, evaluate_select
from repro.query.update import (
    ChangeRecord,
    InsertRecord,
    UpdateResult,
    apply_action,
    detach_to_record,
)
from repro.xmlstore.fragment import Fragment
from repro.xmlstore.nodes import Element
from repro.xmlstore.parser import parse_fragment
from repro.xmlstore.path import NULL_METER, TraversalMeter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.txn.wal import LogEntry


#: Resolver signature: (call, materialized parameter values) → outcome.
Resolver = Callable[[ServiceCall, Dict[str, str]], Outcome]

#: Bound on nested invocation (a result that is a service call whose
#: result is a service call …), so a misbehaving service cannot loop the
#: engine forever.
MAX_DEPTH = 8


@dataclass
class MaterializedCall:
    """One materialized call and the tree changes it caused."""

    method_name: str
    call_id: object
    outcome: Outcome
    records: List[ChangeRecord] = field(default_factory=list)
    nested_depth: int = 0


@dataclass
class MaterializationReport:
    """Everything a materialization pass did — input to compensation."""

    calls: List[MaterializedCall] = field(default_factory=list)

    @property
    def invocation_count(self) -> int:
        return len(self.calls)

    def change_records(self) -> List[ChangeRecord]:
        out: List[ChangeRecord] = []
        for call in self.calls:
            out.extend(call.records)
        return out

    def methods(self) -> List[str]:
        return [call.method_name for call in self.calls]


@dataclass
class OperationOutcome:
    """What running one operation produced."""

    action: UpdateAction
    update_result: Optional[UpdateResult] = None
    query_result: Optional[QueryResult] = None
    materialization: Optional[MaterializationReport] = None
    #: The entry the transaction manager logged it under, if it did.
    log_entry: Optional["LogEntry"] = None
    nodes_affected: int = 0

    def change_records(self) -> List[ChangeRecord]:
        """Every tree change: update records plus materialization records."""
        records: List[ChangeRecord] = []
        if self.materialization is not None:
            records.extend(self.materialization.change_records())
        if self.update_result is not None:
            records.extend(self.update_result.records)
        return records


def run_action(
    action: UpdateAction,
    axml_document: AXMLDocument,
    resolver: Optional[Resolver],
) -> OperationOutcome:
    """Run *action* against *axml_document*; the caller logs the outcome.

    A query first materializes the embedded calls it needs through
    *resolver* (lazily, §3.1's preferred mode; eager materialization is
    :meth:`MaterializationEngine.materialize_all`); those change records
    are what make the query compensatable.  ``resolver=None`` skips
    materialization (a purely local read over already-materialized data).
    """
    meter = TraversalMeter()
    outcome = OperationOutcome(action)
    if action.action_type is ActionType.QUERY:
        if resolver is not None:
            outcome.materialization = MaterializationEngine(
                axml_document, resolver, meter
            ).materialize_for_query(action.location)
        outcome.query_result = evaluate_select(
            action.location, axml_document.document, meter
        )
    else:
        outcome.update_result = apply_action(axml_document.document, action, meter)
    outcome.nodes_affected = meter.nodes_traversed
    return outcome


class MaterializationEngine:
    """Materializes service calls of one AXML document."""

    def __init__(
        self,
        axml_document: AXMLDocument,
        resolver: Resolver,
        meter: TraversalMeter = NULL_METER,
    ):
        self.axml_document = axml_document
        self.resolver = resolver
        self.meter = meter

    # -- public entry points ---------------------------------------------------

    def materialize_for_query(self, query: SelectQuery) -> MaterializationReport:
        """Lazy mode: materialize only the calls the query requires (§3.1)."""
        report = MaterializationReport()
        for call in self.axml_document.calls_for_query(query):
            self._materialize(call, report, depth=0)
        return report

    def materialize_all(self) -> MaterializationReport:
        """Eager mode: materialize every embedded call."""
        report = MaterializationReport()
        for call in self.axml_document.service_calls():
            # A call may have been consumed by a previous nested pass.
            if not call.element.is_attached():
                continue
            self._materialize(call, report, depth=0)
        return report

    def materialize_call(self, call: ServiceCall) -> MaterializationReport:
        """Materialize one specific call (periodic/continuous services)."""
        report = MaterializationReport()
        self._materialize(call, report, depth=0)
        return report

    # -- internals -----------------------------------------------------------------

    def _materialize(
        self, call: ServiceCall, report: MaterializationReport, depth: int
    ) -> None:
        if depth > MAX_DEPTH:
            raise MaterializationError(
                f"nested materialization exceeded max depth {MAX_DEPTH} "
                f"at {call.describe()}"
            )
        if call.fetch_once and call.result_nodes():
            # Storage-like call (e.g. a distributed fragment) already
            # fetched: its results are authoritative, skip the refresh.
            return
        records: List[ChangeRecord] = []
        params = self._resolve_params(call, report, depth)
        outcome = self.resolver(call, params)
        records.extend(self._apply_results(call, outcome.fragments))
        materialized = MaterializedCall(
            method_name=call.method_name,
            call_id=call.call_id,
            outcome=outcome,
            records=records,
            nested_depth=depth,
        )
        report.calls.append(materialized)
        for nested in call.nested_result_calls():
            self._materialize(nested, report, depth + 1)

    def _resolve_params(
        self, call: ServiceCall, report: MaterializationReport, depth: int
    ) -> Dict[str, str]:
        """Materialize nested parameters first (local nesting, §1).

        The nested call's results are applied in place inside the
        parameter element; the parameter's value is their text content.
        """
        values: Dict[str, str] = {}
        for param in call.params():
            if not param.is_nested:
                values[param.name] = param.value or ""
                continue
            nested = param.nested_call
            assert nested is not None
            self._materialize(nested, report, depth + 1)
            values[param.name] = "".join(
                node.text_content() for node in nested.result_nodes()
            )
        return values

    def _apply_results(
        self, call: ServiceCall, fragments: Sequence[str]
    ) -> List[ChangeRecord]:
        """Apply invocation results under the call's mode (§1).

        ``replace``: previous results are detached (logged as deletes) and
        new fragments inserted in their place.  ``merge``: fragments are
        appended as siblings *after* the previous results.
        """
        records: List[ChangeRecord] = []
        sc_element = call.element
        document = self.axml_document.document
        mode = call.mode
        if mode == "replace":
            for node in call.result_nodes():
                if isinstance(node, Element):
                    self.meter.touch(node.subtree_size())
                    records.append(detach_to_record(node))
                else:
                    node.detach()
                    self.meter.touch()
        for fragment in fragments:
            inserted = Fragment(text=fragment)
            for node in parse_fragment(fragment, document):
                sc_element.append(node)
                self.meter.touch(node.subtree_size())
                records.append(
                    InsertRecord(
                        node_id=node.node_id,
                        parent_id=sc_element.node_id,
                        index=len(sc_element.children) - 1,
                        fragment=inserted,
                    )
                )
        return records
