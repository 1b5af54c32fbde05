"""The per-peer transaction manager.

"The transaction context, managed by the transaction manager, is a data
structure which encapsulates the transaction id with all the information
required for concurrency control, commit and recovery" (§3.2).  The
manager owns the peer's operation log and transaction contexts, executes
operations under a transaction, and performs the peer's share of
compensation when a transaction aborts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.axml.document import AXMLDocument
from repro.axml.materialize import OperationOutcome, Resolver, run_action
from repro.errors import TransactionError
from repro.query.ast import ActionType, UpdateAction
from repro.query.update import ChangeRecord
from repro.txn.compensation import CompensationPlan, build_compensation_for_entries
from repro.txn.transaction import InvocationFrame, Transaction, TransactionContext, TransactionState
from repro.txn.wal import LogEntry, OperationLog
from repro.xmlstore.path import NULL_METER, TraversalMeter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.spans import SpanCollector
    from repro.txn.occ import OptimisticValidator

#: Callable resolving a document name to the hosted AXML document.
DocumentProvider = Callable[[str], AXMLDocument]


class TransactionManager:
    """Transaction bookkeeping and local recovery for one peer."""

    def __init__(
        self,
        peer_id: str,
        document_provider: DocumentProvider,
        spans: "SpanCollector",
        validator: Optional["OptimisticValidator"] = None,
    ):
        self.peer_id = peer_id
        self.log = OperationLog(peer_id)
        self.contexts: Dict[str, TransactionContext] = {}
        #: txn id → final state: what stays of a share once its context
        #: leaves ``contexts`` (:meth:`forget`).
        self.outcomes: Dict[str, TransactionState] = {}
        self._document_provider = document_provider
        #: Optional optimistic concurrency control (see repro.txn.occ):
        #: when set, executions are tracked and commit validates; a
        #: conflict aborts-and-compensates, then raises.
        self.validator = validator
        #: Total nodes traversed by compensation at this peer (§3.2 cost).
        self.compensation_cost = 0
        #: Where compensation steps open their spans: the owning peer
        #: passes its network's collector, so every compensation run
        #: shows up in the transaction's span tree.
        self.spans = spans

    # -- context lifecycle ---------------------------------------------------

    def begin(
        self,
        transaction: Transaction,
        parent_peer: Optional[str] = None,
        service_name: Optional[str] = None,
    ) -> TransactionContext:
        """Create (or return) this peer's context for *transaction*.

        A participant whose share finished (aborted during nested
        recovery) and is still held restarts it in place
        (:meth:`TransactionContext.restart`).
        """
        context = self.contexts.get(transaction.txn_id)
        if context is None:
            self.outcomes.pop(transaction.txn_id, None)
            context = self.contexts[transaction.txn_id] = TransactionContext(
                transaction, self.peer_id, parent_peer, service_name
            )
        elif context.is_finished and parent_peer is not None:
            context.restart(parent_peer, service_name)
        else:
            return context
        if self.validator is not None:
            self.validator.begin(transaction.txn_id)
        return context

    def context(self, txn_id: str) -> TransactionContext:
        try:
            return self.contexts[txn_id]
        except KeyError:
            raise TransactionError(
                f"peer {self.peer_id!r} has no context for transaction {txn_id!r}"
            )

    def has_context(self, txn_id: str) -> bool:
        """Whether this peer holds a share of *txn_id*, decided or not."""
        return txn_id in self.contexts or txn_id in self.outcomes

    def live_context(self, txn_id: str) -> Optional[TransactionContext]:
        """This peer's share of *txn_id* if it still awaits a decision
        (a context exists and is not finished), else ``None``."""
        context = self.contexts.get(txn_id)
        return None if context is None or context.is_finished else context

    def states(self) -> Dict[str, TransactionState]:
        """txn id → this peer's state of it: a held context's state or a
        forgotten share's final one."""
        return {**self.outcomes, **{t: c.state for t, c in self.contexts.items()}}

    def forget(self, txn_id: str) -> None:
        """The one way a share leaves: its context goes with its pending
        work, and ``outcomes`` keeps its final state.  The commit decision
        calls this (announced at the origin, received at a participant);
        an aborted or in-doubt share stays for late traffic and §3.3's
        reuse until settlement, which knows the global outcome."""
        context = self.contexts.pop(txn_id, None)
        if context is not None:
            context.cancel_work()
            self.outcomes[txn_id] = context.state

    # -- operation execution ------------------------------------------------------

    def execute(
        self,
        txn_id: str,
        action: UpdateAction,
        document_name: str,
        resolver: Optional[Resolver] = None,
        timestamp: float = 0.0,
    ) -> OperationOutcome:
        """Run one operation under the transaction (:func:`run_action`)
        and log it, records or none, as a ``query`` or ``update`` entry."""
        context = self.context(txn_id)
        context.require_active()
        outcome = run_action(action, self._document_provider(document_name), resolver)
        records = outcome.change_records()
        outcome.log_entry = self._log(
            context,
            "query" if action.action_type is ActionType.QUERY else "update",
            document_name, action.to_xml(), records, timestamp, action,
        )
        if self.validator is not None:
            from repro.txn.occ import read_ids, written_ids

            if outcome.query_result is not None:
                self.validator.track_reads(txn_id, read_ids(outcome.query_result))
            if records:
                self.validator.track_writes(txn_id, written_ids(records))
        return outcome

    def record_service_changes(
        self,
        txn_id: str,
        document_name: str,
        action_xml: str,
        records: Sequence[ChangeRecord],
        timestamp: float,
        action: Optional[UpdateAction],
    ) -> None:
        """Log changes made by a service executed for a remote invoker;
        *action* is the executed action ``action_xml`` spells."""
        context = self.context(txn_id)
        context.require_active()
        self._log(context, "service", document_name, action_xml, records, timestamp, action)

    def _log(
        self,
        context: TransactionContext,
        kind: str,
        document_name: str,
        action_xml: str,
        records: Sequence[ChangeRecord],
        timestamp: float,
        action: Optional[UpdateAction],
    ) -> LogEntry:
        """Append one entry to the log and to *context*'s open frame."""
        entry = self.log.append(
            context.txn_id, kind, document_name, action_xml, records, timestamp, action
        )
        context.record_entry(entry)
        return entry

    # -- commit / abort ---------------------------------------------------------------

    def commit_local(self, txn_id: str) -> None:
        """Commit this peer's share: its log entries go and the context is
        ``COMMITTED`` — a committed frame is never undone.

        A context already aborted stays aborted: this happens when the
        origin absorbed a participant's fault (forward recovery) and
        committed the rest — the faulted participant's share was already
        compensated, which is exactly the absorb semantics.
        """
        if txn_id in self.outcomes:
            return
        context = self.context(txn_id)
        if context.is_finished:
            return
        if self.validator is not None:
            from repro.txn.occ import ValidationConflict

            try:
                self.validator.validate_and_commit(txn_id)
            except ValidationConflict:
                # First-committer-wins: the loser aborts, compensation
                # removes its writes, and the conflict surfaces.
                self.abort_local(txn_id)
                raise
        context.transition(TransactionState.COMMITTED)
        self.log.truncate(txn_id)

    def abort_local(self, txn_id: str) -> int:
        """Backward recovery of this peer's whole share: :meth:`_undo`
        over every entry the transaction logged here.

        Returns the number of compensating actions executed.  Idempotent:
        an already-aborted context compensates nothing.
        """
        context = self.context(txn_id)
        if context.is_finished:
            return 0
        if self.validator is not None:
            self.validator.abort(txn_id)
        context.transition(TransactionState.COMPENSATING)
        context.frames.clear()
        executed = self._undo(context, self.log.undo_entries(txn_id))
        context.transition(TransactionState.ABORTED)
        return executed

    def abort_frames(self, txn_id: str, frames: List[InvocationFrame]) -> int:
        """Backward recovery of part of this peer's share: undo
        ``context.scope(frames)``, whose frames and invocations leave the
        share; it stays ACTIVE for the rest.  Returns the number of
        compensating actions executed."""
        context = self.context(txn_id)
        entries = sorted(context.detach(frames), key=lambda e: e.seq, reverse=True)
        return self._undo(context, entries) if entries else 0

    def _undo(self, context: TransactionContext, entries: Sequence[LogEntry]) -> int:
        """Compensate *entries* (newest first) and remove them from the log,
        crash-safely: ``truncate`` writes the transaction's tombstone and
        the survivors are appended again after it and flushed at once —
        their results may already be handed off (§3.1) — so a restart
        recovers exactly the survivors (their frames follow the copies)."""
        txn_id = context.txn_id
        meter = TraversalMeter()
        plans = build_compensation_for_entries(entries)
        with self.spans.span(
            f"compensate:{txn_id}", "compensation", peer=self.peer_id, txn_id=txn_id,
            attrs={"plans": len(plans)},
        ):
            executed = self._run_plans(plans, meter)
        self.compensation_cost += meter.nodes_traversed
        undone = {e.seq for e in entries}
        survivors = [e for e in self.log.entries_for(txn_id) if e.seq not in undone]
        self.log.truncate(txn_id)
        renewed = {  # an entry's parsed action goes with it: a survivor is not re-parsed
            e.seq: self.log.append(e.txn_id, e.kind, e.document_name, e.action_xml,
                                   e.records, e.timestamp, e._action)
            for e in survivors
        }
        if survivors:
            self.log.flush()
        for frame in context.frames:
            frame.entries = [renewed.get(e.seq, e) for e in frame.entries]
        return executed

    def _run_plans(
        self, plans: Sequence[CompensationPlan], meter: TraversalMeter = NULL_METER
    ) -> int:
        """Execute *plans* against the hosted documents, in order;
        returns the number of compensating actions executed."""
        executed = 0
        for plan in plans:
            document = self._document_provider(plan.document_name).document
            plan.execute(document, meter)
            executed += len(plan)
        return executed

    # -- crash / restart -------------------------------------------------------------

    def crash(self) -> None:
        """Process death: contexts (with their pending work), outcomes and
        the in-memory log are lost.

        With group commit, entries whose WAL frames were not yet synced
        die with the process.  Their document effects must die too — the
        restarted log has no record to compensate them from — so they
        are undone here (the write-ahead rule, enforced late).  Safe
        because the peer's write-ahead barrier guarantees an unsynced
        entry belongs to a share whose result was never handed off: the
        invoker saw this crash as a failed invocation, so no other peer
        depends on the effect.
        """
        for context in self.contexts.values():
            context.cancel_work()
        self.contexts.clear()
        self.outcomes.clear()
        unsynced = self.log.crash()
        for txn_id in sorted({e.txn_id for e in unsynced}):
            self._run_plans(build_compensation_for_entries(
                [e for e in reversed(unsynced) if e.txn_id == txn_id]
            ))

    def recover(self, restore_store: Callable[[], None]) -> int:
        """Restart: refill the log (:meth:`OperationLog.recover` — from
        disk when durable) and give every recovered share an ``ACTIVE``
        context that waits for a decision (``AXMLPeer.resolve_in_doubt``).

        *restore_store* runs between the two steps: what the disk read
        brought back besides entries (checkpointed documents) must be in
        place before any share is settled against it.

        Returns the number of shares rebuilt.
        """
        self.log.recover()
        restore_store()
        txn_ids = sorted({entry.txn_id for entry in self.log})
        for txn_id in txn_ids:
            self.begin(Transaction(txn_id, self.peer_id))
        return len(txn_ids)

    # -- peer-independent compensation (§3.2) --------------------------------------

    def build_compensation_xml(
        self, txn_id: str, records: Sequence[ChangeRecord], document_name: str
    ) -> str:
        """The compensating-service definition for one service execution.

        "A peer APY, processing the invocation of a service S, also
        returns the definition of the compensating service CS_SY of S
        along with the invocation results."
        """
        plan = CompensationPlan(document_name)
        plan.extend_from_records(records)
        return plan.to_xml()

    def apply_compensation_xml(self, plan_xml: str) -> int:
        """Execute a received compensating-service definition locally.

        "The original peers do not even need to be aware that the
        services they are executing are, basically, compensating
        services" — this entry point takes the plan as opaque XML.
        """
        plan = CompensationPlan.from_xml(plan_xml)
        document = self._document_provider(plan.document_name).document
        meter = TraversalMeter()
        with self.spans.span(
            f"apply_compensation:{plan.document_name}", "compensation", peer=self.peer_id,
            attrs={"actions": len(plan)},
        ):
            plan.execute(document, meter)
        self.compensation_cost += meter.nodes_traversed
        return len(plan)
