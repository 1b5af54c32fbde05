"""Executors for update actions, producing compensation-grade change records.

The paper's key observation (§3.1) is that "the data (nodes) required
for compensation cannot be predicted in advance and would need to be
read from the log at run-time": a delete must log the result of its
``<location>`` query (the deleted subtrees and where they sat), an
insert must log the returned node ids, a replace logs both halves.

:func:`apply_action` therefore returns an :class:`UpdateResult` carrying
exactly those records; :mod:`repro.txn.wal` persists them and
:mod:`repro.txn.compensation` turns them into compensating operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import UpdateError
from repro.query.ast import ActionType, SelectQuery, UpdateAction
from repro.query.evaluate import QueryResult, evaluate_select
from repro.xmlstore.fragment import Fragment
from repro.xmlstore.nodes import Document, Element, NodeId
from repro.xmlstore.path import NULL_METER, TraversalMeter
from repro.xmlstore.serializer import rebind_element_ids, serialize


@dataclass
class DeleteRecord:
    """Log record for one deleted subtree.

    ``snapshot_xml`` is the serialized subtree (the logged
    ``<location>``-query result); the parent id and sibling anchors allow
    order-preserving re-insertion.  ``index`` is the positional fallback
    for unordered mode.
    """

    node_id: NodeId
    parent_id: NodeId
    index: int
    before_id: Optional[NodeId]
    after_id: Optional[NodeId]
    snapshot_xml: str

    @property
    def kind(self) -> str:
        return "delete"


@dataclass
class InsertRecord:
    """Log record for one inserted subtree: the returned id (§3.1) and the fragment."""

    node_id: NodeId
    parent_id: NodeId
    index: int
    fragment: Fragment

    @property
    def kind(self) -> str:
        return "insert"

    @property
    def inserted_xml(self) -> str:
        """The fragment's text (rendered on first read, at a byte edge)."""
        return self.fragment.text


@dataclass
class ReplaceRecord:
    """Log record for one replace: its delete and insert halves (§3.1)."""

    deleted: DeleteRecord
    inserted: List[InsertRecord]

    @property
    def kind(self) -> str:
        return "replace"

    @property
    def node_id(self) -> NodeId:
        return self.deleted.node_id


ChangeRecord = Union[DeleteRecord, InsertRecord, ReplaceRecord]


@dataclass
class UpdateResult:
    """Outcome of applying an action: targets found plus change records.

    For inserts, ``inserted_ids`` is the paper's "operation returns the
    (unique) ID of the inserted node".  For queries, ``query_result``
    holds the bindings and ``records`` is empty (materialization changes
    are recorded by the AXML engine, not here).
    """

    action: UpdateAction
    records: List[ChangeRecord] = field(default_factory=list)
    inserted_ids: List[NodeId] = field(default_factory=list)
    query_result: Optional[QueryResult] = None
    nodes_affected: int = 0

    @property
    def target_count(self) -> int:
        if self.query_result is not None:
            return len(self.query_result)
        deletes = sum(1 for r in self.records if r.kind in ("delete", "replace"))
        return max(deletes, len(self.inserted_ids))


def apply_action(
    document: Document,
    action: UpdateAction,
    meter: TraversalMeter = NULL_METER,
    tolerate_missing_targets: bool = False,
) -> UpdateResult:
    """Apply *action* to *document*, returning the change records.

    Raises :class:`~repro.errors.UpdateError` when an insert/replace
    locates no target (silently updating nothing would hide workload
    bugs; deletes of nothing are tolerated as idempotent).  Compensation
    passes ``tolerate_missing_targets=True``: a compensating operation
    whose target vanished is a no-op, since compensation only needs to
    reach an *acceptable* state (§3.1, [15]).
    """
    if action.action_type is ActionType.QUERY:
        result = evaluate_select(action.location, document, meter)
        return UpdateResult(
            action, query_result=result, nodes_affected=meter.nodes_traversed
        )
    try:
        if action.action_type is ActionType.DELETE:
            return _apply_delete(document, action, meter)
        if action.action_type is ActionType.INSERT:
            return _apply_insert(document, action, meter)
        if action.action_type is ActionType.REPLACE:
            return _apply_replace(document, action, meter)
    except UpdateError:
        if tolerate_missing_targets:
            return UpdateResult(action, nodes_affected=meter.nodes_traversed)
        raise
    raise UpdateError(f"unsupported action type {action.action_type!r}")


def _locate(
    document: Document, query: SelectQuery, meter: TraversalMeter
) -> List[Element]:
    result = evaluate_select(query, document, meter)
    targets: List[Element] = []
    seen = set()
    for node in result.all_nodes():
        if isinstance(node, Element) and node.node_id not in seen:
            seen.add(node.node_id)
            targets.append(node)
    return targets


def _apply_delete(
    document: Document, action: UpdateAction, meter: TraversalMeter
) -> UpdateResult:
    targets = _locate(document, action.location, meter)
    records: List[ChangeRecord] = []
    affected = 0
    for target in targets:
        if target is document.root:
            raise UpdateError("cannot delete the document root")
        affected += target.subtree_size()
        records.append(_detach_to_record(target))
    return UpdateResult(action, records=records, nodes_affected=affected + meter.nodes_traversed)


def detach_to_record(target: Element) -> DeleteRecord:
    """Detach *target* and return its compensation-grade delete record.

    Shared with the AXML materialization engine, which removes previous
    result nodes in ``replace`` mode and must log them the same way an
    explicit delete does (query compensation, §3.1).
    """
    return _detach_to_record(target)


def _detach_to_record(target: Element) -> DeleteRecord:
    # Snapshot with persisted ids: the compensating insert re-adopts them
    # (rebind), restoring the deleted nodes' identities exactly.
    snapshot = serialize(target, include_ids=True)
    detach = target.detach()
    return DeleteRecord(
        node_id=target.node_id,
        parent_id=detach.parent_id,
        index=detach.index,
        before_id=detach.before_id,
        after_id=detach.after_id,
        snapshot_xml=snapshot,
    )


def _apply_insert(
    document: Document, action: UpdateAction, meter: TraversalMeter
) -> UpdateResult:
    targets = _locate(document, action.location, meter)
    if not targets:
        raise UpdateError(
            f"insert located no target: {action.location}"
        )
    records: List[ChangeRecord] = []
    inserted_ids: List[NodeId] = []
    affected = 0
    for target in targets:
        for position, fragment in enumerate(action.data):
            node = _materialize(document, action, position)
            index = _insert_fragment(document, target, node, action.anchor)
            affected += node.subtree_size()
            records.append(
                InsertRecord(
                    node_id=node.node_id,
                    parent_id=target.node_id,
                    index=index,
                    fragment=fragment,
                )
            )
            inserted_ids.append(node.node_id)
    return UpdateResult(
        action,
        records=records,
        inserted_ids=inserted_ids,
        nodes_affected=affected + meter.nodes_traversed,
    )


def _materialize(document: Document, action: UpdateAction, position: int) -> Element:
    """Fragment *position* of *action*'s ``<data>`` as new, detached nodes
    of *document*, with the ids a ``parse_fragment`` of its text hands
    out there (:meth:`~repro.xmlstore.fragment.Fragment.materialize`)."""
    elements = action.data[position].materialize(document)
    if len(elements) != 1:
        raise UpdateError(
            f"<data> fragment must contain exactly one element, got {len(elements)}"
        )
    node = elements[0]
    if action.rebind:
        rebind_element_ids(node, document)
    return node


def _insert_fragment(
    document: Document,
    parent: Element,
    node: Element,
    anchor: Optional[Tuple[str, str]],
) -> int:
    """Place *node* under *parent*; returns the child position it landed at."""
    if anchor is not None:
        mode, anchor_id_text = anchor
        anchor_id = NodeId.parse(anchor_id_text)
        # A vanished anchor (e.g. deleted by a concurrent operation) or
        # one that moved elsewhere degrades to append, the paper's
        # unordered behaviour.
        if document.has_node(anchor_id):
            anchor_node = document.get_node(anchor_id)
            if anchor_node.parent is parent:
                index = parent.children.index(anchor_node)
                if mode != "before":
                    index += 1
                parent.insert_at(index, node)
                return index
    parent.append(node)
    return len(parent.children) - 1


def _apply_replace(
    document: Document, action: UpdateAction, meter: TraversalMeter
) -> UpdateResult:
    """Replace = delete the target, insert the data at the same position (§3.1)."""
    targets = _locate(document, action.location, meter)
    if not targets:
        raise UpdateError(f"replace located no target: {action.location}")
    records: List[ChangeRecord] = []
    inserted_ids: List[NodeId] = []
    affected = 0
    for target in targets:
        if target is document.root:
            raise UpdateError("cannot replace the document root")
        parent = target.parent
        affected += target.subtree_size()
        delete_record = _detach_to_record(target)
        position = delete_record.index
        insert_records: List[InsertRecord] = []
        for offset, fragment in enumerate(action.data):
            node = _materialize(document, action, offset)
            parent.insert_at(position + offset, node)
            affected += node.subtree_size()
            insert_records.append(
                InsertRecord(
                    node_id=node.node_id,
                    parent_id=parent.node_id,
                    index=position + offset,
                    fragment=fragment,
                )
            )
            inserted_ids.append(node.node_id)
        records.append(ReplaceRecord(delete_record, insert_records))
    return UpdateResult(
        action,
        records=records,
        inserted_ids=inserted_ids,
        nodes_affected=affected + meter.nodes_traversed,
    )


def replay_records(
    document: Document, action: UpdateAction, records: Sequence[ChangeRecord]
) -> bool:
    """Redo a logged update from its change records, by node id.

    For another holder of *document*; no Select runs.  A delete detaches
    its node.  An insert materializes its ``<data>`` fragment as
    :func:`_materialize` does, gives the new nodes the logging holder's
    ids (the record's for the root, then the next serials in pre-order;
    a rebinding fragment carries its own) and places it under the logged
    parent as an insert does (append, or ``action.anchor``).  A replace
    is its delete, then its inserts at the deleted node's position.
    Returns False, changing nothing, when a logged node is not live here
    or a new node's id already is.
    """
    if not all(_resolves(document, record) for record in records):
        return False
    width = len(action.data)
    for number, record in enumerate(records):
        if record.kind == "delete":
            document.get_node(record.node_id).detach()
        elif record.kind == "insert":
            node = _materialize_as(document, action, number % width, record.node_id)
            _insert_fragment(document, document.get_node(record.parent_id), node, action.anchor)
        else:
            target = document.get_node(record.deleted.node_id)
            parent = target.parent
            position = target.detach().index
            for offset, inserted in enumerate(record.inserted):
                node = _materialize_as(document, action, offset, inserted.node_id)
                parent.insert_at(position + offset, node)
    return True


def _live(document: Document, node_id: NodeId) -> bool:
    return document.has_node(node_id) and document.get_node(node_id).is_attached()


def _resolves(document: Document, record: ChangeRecord) -> bool:
    if record.kind == "delete":
        return _live(document, record.node_id)
    if record.kind == "insert":
        return _live(document, record.parent_id) and not _live(document, record.node_id)
    return _live(document, record.deleted.node_id) and not any(
        _live(document, inserted.node_id) for inserted in record.inserted
    )


def _materialize_as(
    document: Document, action: UpdateAction, position: int, node_id: NodeId
) -> Element:
    node = _materialize(document, action, position)
    if not action.rebind:
        for serial, each in enumerate(node.iter(), node_id.node_serial):
            document._adopt_id(each, NodeId(node_id.doc_serial, serial))
    return node
