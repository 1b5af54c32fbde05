"""Optimistic concurrency control over compensable transactions.

The paper defers isolation ("the transaction context … encapsulates …
all the information required for concurrency control") and its
conclusion calls for studying the *interplay* between the ACID
properties.  This module supplies the natural companion to a
compensation-based framework: **backward-validation OCC**.

Rationale: §2 dismisses lock-based protocols because AXML documents are
active (reads materialize) and transactions are long ("in hours") —
holding locks is untenable.  Compensation already gives us cheap aborts,
which is exactly what an optimistic scheme needs.  Transactions execute
without blocking, tracking what they read and wrote (by stable node id);
at commit, a transaction validates against the write sets of
transactions that committed during its lifetime.  A conflict aborts the
younger transaction — compensation cleans up its writes.

The validator is per-repository and deliberately simple: node-id level
granularity, first-committer-wins.  Phantom protection relies on
writers touching the *parent* of inserted/deleted nodes (which our
change records expose), so a reader of an element conflicts with
concurrent child insertion/deletion under it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

from repro.errors import TransactionError
from repro.query.evaluate import QueryResult
from repro.query.update import ChangeRecord, DeleteRecord, InsertRecord, ReplaceRecord
from repro.xmlstore.nodes import NodeId

HISTORY_LIMIT = 1000  # committed write sets kept for validation, newest


class ValidationConflict(TransactionError):
    """Commit-time validation failed: the transaction must abort."""

    def __init__(self, txn_id: str, conflicting_txn: str, node_id: NodeId):
        super().__init__(
            f"{txn_id} read {node_id!r}, which {conflicting_txn} wrote "
            "after this transaction started"
        )
        self.conflicting_txn = conflicting_txn
        self.node_id = node_id


def written_ids(records: Iterable[ChangeRecord]) -> Set[NodeId]:
    """The node ids a record sequence writes — including parents, so
    structural changes conflict with readers of the surrounding element."""
    out: Set[NodeId] = set()
    for record in records:
        if isinstance(record, InsertRecord):
            out.add(record.node_id)
            out.add(record.parent_id)
        elif isinstance(record, DeleteRecord):
            out.add(record.node_id)
            out.add(record.parent_id)
        elif isinstance(record, ReplaceRecord):
            out.update(written_ids([record.deleted]))
            out.update(written_ids(record.inserted))
    return out


def read_ids(result: QueryResult) -> Set[NodeId]:
    """The node ids a query result depends on: every binding element and
    every selected node."""
    out: Set[NodeId] = set()
    for binding in result.bindings:
        out.add(binding.context.node_id)
        for node in binding.nodes():
            out.add(node.node_id)
    return out


@dataclass
class _TxnFootprint:
    txn_id: str
    start_tick: int
    reads: Set[NodeId] = field(default_factory=set)
    writes: Set[NodeId] = field(default_factory=set)


@dataclass
class _CommittedWrite:
    txn_id: str
    commit_tick: int
    writes: Set[NodeId]


class OptimisticValidator:
    """Backward-validation OCC for one repository (peer).

    Usage::

        validator = OptimisticValidator()
        validator.begin(txn_id)
        validator.track_reads(txn_id, read_ids(query_result))
        validator.track_writes(txn_id, written_ids(outcome.change_records()))
        validator.validate_and_commit(txn_id)   # raises ValidationConflict
        # on conflict: abort + compensate, then optionally retry

    Ticks are a logical counter, not wall time, so validation is
    deterministic and independent of the simulation clock.
    """

    def __init__(self):
        self._tick = 0
        self._active: Dict[str, _TxnFootprint] = {}
        self._committed: List[_CommittedWrite] = []
        self.conflicts = 0

    # -- lifecycle ---------------------------------------------------------

    def begin(self, txn_id: str) -> None:
        if txn_id in self._active:
            raise TransactionError(f"{txn_id} already began validation tracking")
        self._tick += 1
        self._active[txn_id] = _TxnFootprint(txn_id, self._tick)

    def track_reads(self, txn_id: str, node_ids: Iterable[NodeId]) -> None:
        self._footprint(txn_id).reads.update(node_ids)

    def track_writes(self, txn_id: str, node_ids: Iterable[NodeId]) -> None:
        footprint = self._footprint(txn_id)
        footprint.writes.update(node_ids)
        # Writes are implicit reads (read-modify-write).
        footprint.reads.update(node_ids)

    def validate_and_commit(self, txn_id: str) -> None:
        """Backward validation: fail on read/write overlap with any
        transaction that committed after this one began."""
        footprint = self._footprint(txn_id)
        for committed in self._committed:
            if committed.commit_tick <= footprint.start_tick:
                continue
            overlap = footprint.reads & committed.writes
            if overlap:
                self.conflicts += 1
                del self._active[txn_id]
                raise ValidationConflict(
                    txn_id, committed.txn_id, next(iter(overlap))
                )
        self._tick += 1
        if footprint.writes:
            self._committed.append(
                _CommittedWrite(txn_id, self._tick, set(footprint.writes))  # hash-ok: intersected
            )
            del self._committed[:-HISTORY_LIMIT]
        del self._active[txn_id]

    def abort(self, txn_id: str) -> None:
        """Drop tracking for an aborted transaction (no history entry)."""
        self._active.pop(txn_id, None)

    def _footprint(self, txn_id: str) -> _TxnFootprint:
        try:
            return self._active[txn_id]
        except KeyError:
            raise TransactionError(
                f"{txn_id} is not tracked; call begin() first"
            )
