"""Transactional operation wrappers.

A :class:`TransactionalOperation` binds an update/query action to a
transaction, executes it against a document (driving lazy
materialization for queries), logs it, and can construct its own
compensation — the unit the recovery protocols reason about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.axml.document import AXMLDocument
from repro.axml.materialize import (
    MaterializationEngine,
    MaterializationReport,
    Resolver,
)
from repro.query.ast import ActionType, UpdateAction
from repro.query.evaluate import QueryResult, evaluate_select
from repro.query.update import ChangeRecord, UpdateResult, apply_action
from repro.txn.compensation import CompensationPlan
from repro.txn.wal import LogEntry, OperationLog
from repro.xmlstore.path import TraversalMeter


@dataclass
class OperationOutcome:
    """What executing one transactional operation produced."""

    action: UpdateAction
    update_result: Optional[UpdateResult] = None
    query_result: Optional[QueryResult] = None
    materialization: Optional[MaterializationReport] = None
    log_entry: Optional[LogEntry] = None
    nodes_affected: int = 0

    def change_records(self) -> List[ChangeRecord]:
        """Every tree change: update records plus materialization records."""
        records: List[ChangeRecord] = []
        if self.materialization is not None:
            records.extend(self.materialization.change_records())
        if self.update_result is not None:
            records.extend(self.update_result.records)
        return records


class TransactionalOperation:
    """One operation of a transactional unit, ready to execute.

    ``evaluation`` selects lazy (default, §3.1's preferred mode) or eager
    materialization for queries.
    """

    def __init__(
        self,
        txn_id: str,
        action: UpdateAction,
        evaluation: str = "lazy",
    ):
        if evaluation not in ("lazy", "eager"):
            raise ValueError(f"evaluation must be lazy or eager, not {evaluation!r}")
        self.txn_id = txn_id
        self.action = action
        self.evaluation = evaluation

    def execute(
        self,
        axml_document: AXMLDocument,
        resolver: Optional[Resolver],
        log: OperationLog,
        meter: Optional[TraversalMeter] = None,
        timestamp: float = 0.0,
    ) -> OperationOutcome:
        """Execute against *axml_document*, log, and return the outcome.

        Queries first materialize the embedded calls they need (lazy) or
        all calls (eager) through *resolver*; the materialization's
        change records are what make the query compensatable.  A
        ``resolver=None`` query skips materialization (a purely local
        read over already-materialized data).
        """
        meter = meter or TraversalMeter()
        outcome = OperationOutcome(self.action)
        document = axml_document.document
        if self.action.action_type is ActionType.QUERY:
            if resolver is not None:
                engine = MaterializationEngine(axml_document, resolver, meter)
                if self.evaluation == "lazy":
                    outcome.materialization = engine.materialize_for_query(
                        self.action.location
                    )
                else:
                    outcome.materialization = engine.materialize_all()
            outcome.query_result = evaluate_select(
                self.action.location, document, meter
            )
        else:
            outcome.update_result = apply_action(document, self.action, meter)
        outcome.nodes_affected = meter.nodes_traversed
        records = outcome.change_records()
        outcome.log_entry = log.append(
            txn_id=self.txn_id,
            kind=self.action.action_type.value
            if self.action.action_type is ActionType.QUERY
            else "update",
            document_name=axml_document.name,
            action_xml=self.action.to_xml(),
            records=records,
            timestamp=timestamp,
            action=self.action,
        )
        return outcome

    def __repr__(self) -> str:
        return f"TransactionalOperation({self.txn_id}, {self.action.action_type.value})"


def build_compensation_for_entries(undo_entries) -> List[CompensationPlan]:
    """Compensation plans for log entries given newest first.

    One plan per document the entries — a whole share's
    (``OperationLog.undo_entries``) or some invocation frames' — touch,
    holding its entries' compensating actions in reverse execution order.
    Plans come most-recently-touched document first, so executing them in
    list order preserves global reverse order across documents.
    """
    plans: List[CompensationPlan] = []
    by_document = {}
    for entry in undo_entries:
        if not entry.records:
            continue
        plan = by_document.get(entry.document_name)
        if plan is None:
            plan = CompensationPlan(entry.document_name)
            by_document[entry.document_name] = plan
            plans.append(plan)
        plan.extend_from_records(entry.records)
    return plans
