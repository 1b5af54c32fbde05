"""Dynamic compensation construction (§3.1) — the paper's core idea.

Compensation-based models preserve relaxed atomicity by executing, for
each forward operation, a *compensating* operation that semantically
undoes it — in the reverse order of the forward execution.  The paper's
argument is that for AXML the compensating operations **cannot be
pre-defined statically**:

* a delete's compensation needs the deleted data — "the results of the
  <location> queries of the delete operations need to be logged";
* an insert's compensation deletes "the node having the corresponding
  ID", known only after execution;
* a *query* may materialize embedded service calls (under lazy
  evaluation, a set determined only at run time), so even queries need
  dynamically constructed compensation.

This module turns the change records produced by
:func:`repro.query.update.apply_action` and by the materialization
engine into compensating :class:`~repro.query.ast.UpdateAction`
documents.  Because actions serialize to XML, the constructed
compensations can be shipped to other peers — the enabler of
peer-independent compensation (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import CompensationError
from repro.query.ast import ActionType, NodeRef, SelectQuery, UpdateAction, VarPath
from repro.query.update import (
    ChangeRecord,
    DeleteRecord,
    InsertRecord,
    ReplaceRecord,
    UpdateResult,
    apply_action,
)
from repro.xmlstore.fragment import Fragment
from repro.xmlstore.nodes import Document, NodeId
from repro.xmlstore.path import NULL_METER, PathExpr, TraversalMeter


def node_query(node_id: NodeId, document_name: str) -> SelectQuery:
    """Build the id-based location query ``Select n from n in id(..@..);``."""
    return SelectQuery(
        select_paths=(VarPath("n", PathExpr(())),),
        var="n",
        source=NodeRef(repr(node_id), document_name),
    )


def compensation_for_insert(record: InsertRecord, document_name: str) -> UpdateAction:
    """Insert → delete the node with the returned id (§3.1)."""
    return UpdateAction(
        action_type=ActionType.DELETE,
        location=node_query(record.node_id, document_name),
    )


def compensation_for_delete(
    record: DeleteRecord, document_name: str, ordered: bool = True
) -> UpdateAction:
    """Delete → insert the logged snapshot back under the logged parent.

    With ``ordered=True`` the insert carries a sibling anchor
    (before/after semantics of [16]) so the original ordering is
    preserved; ``ordered=False`` reproduces the paper's unordered
    behaviour (plain append).

    Note the deviation from the paper's worked example: the example's
    compensating location re-evaluates the original path with ``/..``
    appended (``p/citizenship/..``), which navigates *through the deleted
    node* and finds nothing once the delete has happened.  We target the
    logged parent id instead — consistent with the paper's own use of
    node ids for insert compensation.
    """
    anchor: Optional[Tuple[str, str]] = None
    if ordered:
        if record.before_id is not None:
            anchor = ("after", repr(record.before_id))
        elif record.after_id is not None:
            anchor = ("before", repr(record.after_id))
    return UpdateAction(
        action_type=ActionType.INSERT,
        location=node_query(record.parent_id, document_name),
        data=(Fragment(text=record.snapshot_xml),),
        anchor=anchor,
        rebind=True,
    )


def compensation_for_replace(
    record: ReplaceRecord, document_name: str, ordered: bool = True
) -> List[UpdateAction]:
    """Replace → delete the new node(s), re-insert the old value (§3.1).

    Mirrors the paper's decomposition: the compensating operation is
    itself a delete followed by an insert that "reinstates the old data
    values".
    """
    actions: List[UpdateAction] = [
        compensation_for_insert(ins, document_name) for ins in record.inserted
    ]
    actions.append(compensation_for_delete(record.deleted, document_name, ordered))
    return actions


def compensate_records(
    records: Sequence[ChangeRecord], document_name: str, ordered: bool = True
) -> List[UpdateAction]:
    """Compensating actions for a record sequence, in reverse order.

    This is the run-time constructor: it reads the log records of one
    forward operation (an update's change records, or the records of all
    service-call materializations a query triggered) and emits the
    actions that undo them.  Compensation executes compensating
    operations "in the reverse order of the execution of their
    respective forward operations" — the reversal happens here.
    """
    actions: List[UpdateAction] = []
    for record in reversed(list(records)):
        if isinstance(record, InsertRecord):
            actions.append(compensation_for_insert(record, document_name))
        elif isinstance(record, DeleteRecord):
            actions.append(compensation_for_delete(record, document_name, ordered))
        elif isinstance(record, ReplaceRecord):
            actions.extend(compensation_for_replace(record, document_name, ordered))
        else:  # pragma: no cover - exhaustive over ChangeRecord
            raise CompensationError(f"unknown change record {record!r}")
    return actions


def compensating_actions_for(
    result: UpdateResult, document_name: str, ordered: bool = True
) -> List[UpdateAction]:
    """Compensating actions for one applied update's result."""
    return compensate_records(result.records, document_name, ordered)


@dataclass
class CompensationPlan:
    """An executable compensation: ordered actions against one document.

    Produced dynamically at run time and consumed either locally (the
    original peer compensates itself) or remotely (peer-independent
    compensation: the plan's XML form is shipped and executed by whoever
    performs recovery, §3.2).
    """

    document_name: str
    actions: List[UpdateAction] = field(default_factory=list)

    def extend_from_records(self, records: Sequence[ChangeRecord]) -> None:
        """Append compensation for *records* (newest forward op first)."""
        self.actions.extend(compensate_records(records, self.document_name))

    def to_xml(self) -> str:
        """Serialize as a ``<compensation>`` document for shipping."""
        body = "".join(action.to_xml() for action in self.actions)
        return f'<compensation document="{self.document_name}">{body}</compensation>'

    @classmethod
    def from_xml(cls, xml_text: str) -> "CompensationPlan":
        from repro.query.parser import action_from_element
        from repro.xmlstore.parser import parse_document

        root = parse_document(xml_text, name="compensation").root
        if root.name.local != "compensation":
            raise CompensationError(
                f"expected <compensation>, found <{root.name.text}>"
            )
        plan = cls(root.attributes.get("document", ""))
        for child in root.find_children("action"):
            plan.actions.append(action_from_element(child))
        return plan

    def execute(
        self, document: Document, meter: TraversalMeter = NULL_METER
    ) -> List[UpdateResult]:
        """Run every compensating action, in order, against *document*.

        Individual actions whose targets have vanished (e.g. the node was
        already removed by a later-compensated operation) are no-ops —
        compensation moves the system to an *acceptable* state, which
        tolerates already-gone targets, but genuine failures still raise.
        """
        results: List[UpdateResult] = []
        for action in self.actions:
            results.append(
                apply_action(document, action, meter, tolerate_missing_targets=True)
            )
        return results

    def __len__(self) -> int:
        return len(self.actions)


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
