"""The AXML peer: documents + services + the transactional protocols.

"AXML peers: Nodes where the AXML documents and services are hosted"
(§1).  On top of hosting, this class implements the paper's protocols:

* transaction submission, commit and abort (origin role);
* service execution under a transaction context (participant role),
  including the callee side of nested recovery — §3.2 steps 1–2;
* invocation with caller-side forward/backward recovery — §3.2 steps
  3–4 — and peer-independent compensation collection;
* the §3.3 disconnection cases, using the piggybacked active-peer chain
  (or the naive baseline behaviour when ``chaining=False``).

WAL shipping, failover targets, replica fallback and scripted faults
come from the network every peer shares (``network.replication``,
``network.injector``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.axml.document import AXMLDocument
from repro.axml.faults import parse_fault_handlers
from repro.axml.materialize import OperationOutcome, Resolver
from repro.axml.service_call import ServiceCall
from repro.errors import (
    P2PError,
    PeerDisconnected,
    ReproError,
    ServiceError,
    ServiceFault,
    ServiceNotFound,
    TransactionError,
    UpdateError,
)
from repro.p2p.chain import PeerChain
from repro.p2p.messages import (
    AbortMessage,
    CommitMessage,
    CompensationRequest,
    DisconnectNotice,
    InvokeRequest,
    RedirectedResult,
    WalShipAck,
    WalShipMessage,
)
from repro.p2p.network import SimNetwork
from repro.query.parser import parse_action
from repro.services.registry import ServiceRegistry
from repro.services.service import Service, ServiceResponse
from repro.obs.spans import Span
from repro.outcome import Outcome
from repro.txn.manager import TransactionManager
from repro.txn.modes import DurabilityPolicy
from repro.txn.peer_independent import dispatch_compensations
from repro.txn.recovery import (
    FaultPolicy,
    RecoveryDecision,
    attempt_forward_recovery,
    fault_name_of,
    select_policy,
)
from repro.txn.transaction import InvocationEdge, InvocationFrame, Transaction
from repro.txn.transaction import TransactionContext, TransactionState


class AXMLPeer:
    """One node of the simulated AXML P2P system."""

    def __init__(
        self,
        peer_id: str,
        network: SimNetwork,
        super_peer: bool = False,
        peer_independent: bool = False,
        chaining: bool = True,
        chain_scope: str = "immediate",
        parent_watch_interval: Optional[float] = None,
        occ: bool = False,
        durability: Optional[DurabilityPolicy] = None,
    ):
        self.peer_id = peer_id
        self.network = network
        self.super_peer = super_peer
        #: §3.2's peer-independent compensation mode.
        self.peer_independent = peer_independent
        #: §3.3's chaining; False gives the naive baseline.
        self.chaining = chaining
        #: Notification breadth on detected disconnections: "immediate"
        #: (parent/children/siblings, the paper's protocol) or "extended"
        #: (plus grandparent/uncles/cousins — the conclusion's extension).
        self.chain_scope = chain_scope
        #: Orphan self-defense (§3.3's ping/keep-alive): a participant
        #: that finished its service keeps probing its invoker every this
        #: many simulated seconds until the commit/abort decision arrives;
        #: a dead invoker triggers local backward recovery.  This covers
        #: the case chain notices cannot: the detector's chain view never
        #: learned about a subtree that was still in flight when its root
        #: died.  ``None`` disables the watch.
        self.parent_watch_interval = parent_watch_interval
        self.disconnected = False
        self.documents: Dict[str, AXMLDocument] = {}
        self.registry = ServiceRegistry(peer_id)
        validator = None
        if occ:
            from repro.txn.occ import OptimisticValidator

            validator = OptimisticValidator()
        self.manager = TransactionManager(
            peer_id, self.get_axml_document, network.spans, validator=validator
        )
        #: Crash durability: a :class:`~repro.txn.modes.DurabilityPolicy`
        #: enables the WAL on the network's disk (:mod:`repro.txn.durable_wal`);
        #: ``None`` keeps the log memory-only and peers fail by
        #: disconnecting, never crashing.
        self.wal = None
        if durability is not None:
            from repro.txn.durable_wal import DurableWal

            self.wal = DurableWal(
                durability, peer_id, network.disk, network.metrics, network.events,
                document_source=self._snapshot_documents,
            )
            self.manager.log.attach(self.wal)
        #: Caller-side fault policies per remote method (§3.2 handlers).
        self.fault_policies: Dict[str, List[FaultPolicy]] = {}
        #: Transactions currently executing on this peer (services run
        #: synchronously, so a stack suffices).
        self._txn_stack: List[str] = []
        network.register(self)

    # ------------------------------------------------------------------
    # hosting
    # ------------------------------------------------------------------

    def host_document(self, axml_document: AXMLDocument) -> AXMLDocument:
        """Host a document locally; it becomes query/update-able here."""
        self.documents[axml_document.name] = axml_document
        return axml_document

    def host_service(self, service: Service) -> Service:
        return self.registry.register(service)

    def get_axml_document(self, name: str) -> AXMLDocument:
        try:
            return self.documents[name]
        except KeyError:
            raise P2PError(f"peer {self.peer_id!r} does not host document {name!r}")

    def _snapshot_documents(self) -> Dict[str, str]:
        """Serialized hosted documents, for the WAL's checkpointer."""
        return {name: doc.to_xml() for name, doc in self.documents.items()}

    def _wal_barrier(self) -> None:
        """The write-ahead barrier (§3.1): buffered WAL frames must be
        durable before this peer sends a message another peer acts on
        (share hand-off, invocation requests).  No-op without group
        commit."""
        if self.wal is not None:
            self.wal.flush()

    def set_fault_policy(
        self, method_name: str, policies: Sequence[FaultPolicy]
    ) -> None:
        """Caller-side handlers for invocations of *method_name*."""
        self.fault_policies[method_name] = list(policies)

    # ------------------------------------------------------------------
    # per-transaction protocol state
    # ------------------------------------------------------------------

    def _chain(self, txn_id: str) -> Optional[PeerChain]:
        """The chain view the §3.3 protocol may act on: ``None`` when
        chaining is off (the naive baseline) or no view is held."""
        context = self.manager.contexts.get(txn_id)
        return context.chain if context is not None and self.chaining else None

    def chain_views(self) -> Dict[str, PeerChain]:
        """txn id → the active-peer chain view this peer holds (§3.3)."""
        return {
            txn_id: context.chain
            for txn_id, context in self.manager.contexts.items()
            if context.chain is not None
        }

    def reroute_chain(self, txn_id: str, old_peer: str, new_peer: str) -> None:
        """§3.3 rewrite: *new_peer* takes *old_peer*'s place in this
        peer's chain view, so commit/abort and disconnection traffic
        reaches the peer that now owns the share (failover, migration)."""
        chain = self._chain(txn_id)
        if chain is not None and chain.substitute(
            old_peer, new_peer, self._peer_is_super(new_peer)
        ):
            self.network.metrics.incr("chains_rewritten")

    def mark_doomed(self, txn_id: str) -> None:
        """This peer learned the transaction cannot commit (no-op without a share)."""
        context = self.manager.contexts.get(txn_id)
        if context is not None:
            context.doomed = True

    def is_doomed(self, txn_id: str) -> bool:
        context = self.manager.contexts.get(txn_id)
        return context is not None and context.doomed

    def take_redirected(self, txn_id: str) -> Dict[str, List[str]]:
        """Hand over (and forget) the results redirected to this peer
        for the transaction, method → fragments — a retry passes them
        on so orphaned children's work is reused, not redone (§3.3b)."""
        context = self.manager.contexts.get(txn_id)
        if context is None:
            return {}
        taken, context.redirected = context.redirected, {}
        return taken

    # ------------------------------------------------------------------
    # ServiceHost protocol (what hosted services may ask of us)
    # ------------------------------------------------------------------

    def record_changes(self, records, document_name: str, action_xml: str, action) -> None:
        """ServiceHost hook: log tree changes as the service makes them."""
        txn_id = self._current_txn()
        if txn_id is None or not records:
            return
        self.manager.record_service_changes(
            txn_id, document_name, action_xml, records,
            timestamp=self.network.clock.now, action=action,
        )

    def materialization_resolver(self) -> Optional[Resolver]:
        """Resolver for embedded service calls in hosted documents.

        Local calls (``serviceURL`` empty or naming this peer) execute
        in-process; remote calls go through :meth:`invoke` under the
        current transaction, with any ``axml:catch`` handlers on the sc
        element as its caller-side fault policies.
        """
        txn_id = self._current_txn()
        if txn_id is None:
            return None

        def resolve(call: ServiceCall, params: Dict[str, str]) -> Outcome:
            target = call.peer_hint
            policies = parse_fault_handlers(call.element)
            if target in ("", self.peer_id):
                response = self._execute_local_service(
                    txn_id, call.method_name, params
                )
                return Outcome(
                    response.fragments, provider_peer=self.peer_id
                )
            fragments = self.invoke(
                txn_id, target, call.method_name, params, policies=policies or None
            )
            return Outcome(fragments, provider_peer=target)

        return resolve

    def invoke_remote(
        self, target_peer: str, method_name: str, params: Dict[str, str]
    ) -> List[str]:
        """ServiceHost hook used by delegating services mid-execution."""
        txn_id = self._current_txn()
        if txn_id is None:
            raise TransactionError(
                f"peer {self.peer_id!r} invoked {method_name!r} outside a transaction"
            )
        fragments = self.manager.context(txn_id).incoming_reuse.pop(method_name, None)
        if fragments is not None:
            # §3.3(b): the invoker passed us a dead peer's already
            # materialized results; reuse instead of re-invoking.
            self.network.metrics.record_reused_invocation()
            return fragments
        return self.invoke(txn_id, target_peer, method_name, params)

    def _current_txn(self) -> Optional[str]:
        return self._txn_stack[-1] if self._txn_stack else None

    # ------------------------------------------------------------------
    # origin role: begin / submit / invoke / commit / abort
    # ------------------------------------------------------------------

    def begin_transaction(
        self, parent_span: Optional[Span] = None, attempt: Optional[int] = None
    ) -> Transaction:
        """Begin a transaction with this peer as origin (§3.2).

        ``parent_span`` nests the transaction span under a caller-owned
        span — the scheduler uses this to group retry attempts of one
        logical client transaction as siblings, and numbers them with
        ``attempt`` (an attribute of the transaction span).
        """
        transaction = Transaction.begin(self.peer_id)
        context = self.manager.begin(transaction)
        context.chain = PeerChain(self.peer_id, self.super_peer)
        # The transaction span is the detached root of this txn's span
        # tree; invocations outside any open span attach themselves here.
        context.span = self.network.spans.start(
            f"txn:{transaction.txn_id}",
            "transaction",
            peer=self.peer_id,
            txn_id=transaction.txn_id,
            parent=parent_span,
            attrs=None if attempt is None else {"attempt": attempt},
        )
        return transaction

    def _close_origin(self, txn_id: str, outcome: str) -> None:
        """Account the origin's outcome and end the transaction span with
        it as status — once, by the step that decides the outcome."""
        self.network.metrics.record_txn_outcome(txn_id, outcome)
        context = self.manager.contexts.get(txn_id)
        if context is not None and context.span is not None:
            span, context.span = context.span, None
            self.network.spans.end(span, status=outcome)

    def submit(self, txn_id: str, action) -> OperationOutcome:
        """Execute one local operation under the transaction, on its
        location's document.

        ``action`` is an :class:`UpdateAction` or its XML text.  Queries
        lazily materialize embedded calls — possibly invoking remote
        peers, which enlists them in the transaction.
        """
        self._check_alive()
        if isinstance(action, str):
            action = parse_action(action)
        self._txn_stack.append(txn_id)
        try:
            outcome = self.manager.execute(
                txn_id,
                action,
                action.location.document_name,
                resolver=self.materialization_resolver(),
                timestamp=self.network.clock.now,
            )
        finally:
            self._txn_stack.pop()
        self.network.metrics.record_forward_cost(outcome.nodes_affected)
        return outcome

    def invoke(
        self,
        txn_id: str,
        target_peer: str,
        method_name: str,
        params: Dict[str, str],
        policies: Optional[Sequence[FaultPolicy]] = None,
        reused_fragments: Optional[Dict[str, List[str]]] = None,
    ) -> List[str]:
        """Invoke a service on another peer under the transaction.

        Implements the caller side of nested recovery (§3.2): on failure,
        try the fault policies (forward recovery — retry, replica,
        absorb, hook); if unhandled, perform backward recovery (undo the
        calling frame — at the origin, the whole share — and send "Abort
        T" to the peers it invoked) and re-raise toward the origin.
        """
        self._check_alive()
        params = dict(params)
        # Shard-placed methods follow the placement directory, not the
        # (possibly stale) static target — delegations written against
        # the build-time topology keep working after a live migration
        # moves the primary.
        routed = self.network.directory.route_service(method_name)
        if routed is not None:
            target_peer = routed
        context = self.manager.context(txn_id)
        context.require_active()
        spans = self.network.spans
        with spans.span(
            f"invoke:{method_name}",
            "invoke",
            peer=self.peer_id,
            txn_id=txn_id,
            parent=spans.current() or context.span,
            attrs={"target": target_peer},
        ) as span:
            edge = context.record_invocation(target_peer, method_name, self.network.next_edge_id())
            chain = self._chain(txn_id)
            if chain is not None and not chain.contains(target_peer):
                chain.add_invocation(
                    self.peer_id, target_peer, self._peer_is_super(target_peer)
                )
            stored = context.redirected.pop(method_name, None)
            if stored is not None:
                # We hold redirected results for this very method: no need to
                # re-invoke at all (§3.3b reuse at the recovering peer).
                self.network.metrics.record_reused_invocation()
                edge.completed = True
                spans.end(span, status="reused")
                return stored
            try:
                result = self._send_invoke(
                    context, target_peer, method_name, params,
                    dict(reused_fragments or {}), edge.edge_id,
                )
            except (ServiceFault, PeerDisconnected) as exc:
                if isinstance(exc, PeerDisconnected) and exc.peer_id == self.peer_id:
                    raise  # we are the dead one; nothing to recover
                decision = self._try_forward_recovery(txn_id, edge, params, exc, policies)
                if decision.handled:
                    edge.completed = True
                    self.network.metrics.incr("forward_recoveries")
                    if decision.used_alternative:
                        self.network.metrics.incr("replica_retries")
                    spans.end(span, status="recovered")
                    return decision.fragments
                frames = context.open_frames[-1:] or None
                # The failed peer already undid this invocation's frame
                # (§3.2); it hears only of other invocations we undo.
                again = self.network.is_alive(target_peer) and any(
                    e is not edge and e.target_peer == target_peer
                    for e in context.edges_of(frames)
                )
                self._backward_recover(txn_id, frames, "" if again else target_peer)
                raise
            edge.completed = True
            if chain is not None:
                if result.chain is not None:
                    # Fold the callee's deeper invocations into our view so
                    # later siblings receive the complete active-peer list
                    # (§3.3).
                    chain.merge(result.chain)
                self.network.metrics.record_value("chain_length", len(chain))
            self.network.metrics.record_forward_cost(result.nodes_affected)
            return result.fragments

    def _send_invoke(
        self,
        context: TransactionContext,
        target_peer: str,
        method_name: str,
        params: Dict[str, str],
        reused_fragments: Dict[str, List[str]],
        edge_id: int,
    ) -> Outcome:
        """Put one invocation on the wire (first try and retries alike):
        piggyback a snapshot of the chain view, make the WAL durable first,
        record the compensating definitions that come back (§3.2)."""
        chain = self._chain(context.txn_id)
        request = InvokeRequest(
            txn_id=context.txn_id,
            origin_peer=context.transaction.origin_peer,
            sender=self.peer_id,
            method_name=method_name,
            params=params,
            chain=chain.copy() if chain is not None else None,
            reused_fragments=reused_fragments,
            edge_id=edge_id,
        )
        self.network.metrics.record_invocation()
        self._wal_barrier()
        result = self.network.rpc(self.peer_id, target_peer, request)
        for provider, plan_xml in result.compensations:
            context.record_compensation_definition(provider, plan_xml)
        return result

    def commit(self, txn_id: str) -> None:
        """Origin-side commit: release local state, tell participants.

        Under OCC a commit may fail validation.  The conflict is
        *surfaced*, not swallowed: the local share is already aborted and
        compensated by the manager, the other participants are told to
        abort theirs, the transaction is accounted as
        ``aborted_conflict``, and the :class:`ValidationConflict`
        re-raises so the caller (e.g. the scheduler) can back off and
        retry with a fresh transaction.
        """
        from repro.txn.occ import ValidationConflict

        self._check_alive()
        context = self.manager.context(txn_id)
        if not context.is_origin:
            raise TransactionError(
                f"peer {self.peer_id!r} is not the origin of {txn_id!r}"
            )
        try:
            self._commit_local_and_ship(txn_id)
        except ValidationConflict:
            self._announce_decision(txn_id, AbortMessage(txn_id, self.peer_id))
            self.network.metrics.incr("occ_conflicts")
            self._close_origin(txn_id, "aborted_conflict")
            raise
        self._announce_decision(txn_id, CommitMessage(txn_id, self.peer_id))
        self._close_origin(txn_id, "committed")
        self.manager.forget(txn_id)

    def _announce_decision(self, txn_id: str, message: object) -> None:
        """The origin's decision goes to every other peer of its chain
        view; its own continuous work for the transaction is moot."""
        chain = self._chain(txn_id)
        if chain is not None:
            self._tell(chain.peers(), message, but=(self.peer_id,))
        self._cancel_pending_work(txn_id)

    def _tell(self, peers, message: object, but: Sequence[str] = ()) -> int:
        """Notify *peers* except those in *but*; returns how many the
        message reached."""
        return sum(
            self.network.notify(self.peer_id, peer_id, message)
            for peer_id in peers
            if peer_id not in but
        )

    def _commit_local_and_ship(self, txn_id: str) -> None:
        """Commit the local share, then stream its committed WAL entries
        on documents with a second holder to every other holder (WAL
        shipping; docs/REPLICATION.md).

        Entries are captured *before* ``commit_local``, whose truncate
        tombstone drops them from the in-memory log (and whose flush
        barrier makes them durable first: the write-ahead rule holds
        across the wire).  Nothing ships when the commit raises (OCC
        conflict) or when the share was already settled.
        """
        entries = ()
        if self.manager.live_context(txn_id) is not None:
            holders = self.network.directory.document_holders
            entries = [e for e in self.manager.log.entries_for(txn_id)
                       if len(holders(e.document_name)) > 1]
        self.manager.commit_local(txn_id)
        if entries:
            self.network.replication.on_committed(self.peer_id, txn_id, entries)

    def abort(self, txn_id: str) -> bool:
        """Origin-initiated abort; returns True if compensation fully ran.

        Peer-dependent mode cascades "Abort T" so every participant
        compensates its own share; peer-independent mode (§3.2) executes
        the received compensating-service definitions directly, falling
        back to a replica holder when the original provider is gone.
        """
        self._check_alive()
        context = self.manager.context(txn_id)
        if self.peer_independent and context.received_compensations:
            complete = dispatch_compensations(
                context.received_compensations,
                send=lambda peer_id, plan_xml: self.network.notify(
                    self.peer_id,
                    peer_id,
                    CompensationRequest(txn_id, plan_xml, self.peer_id),
                ),
                replica_holders=self.network.directory.document_holders,
                count=self.network.metrics.incr,
            )
            self._abort_share(txn_id)
            self._close_origin(txn_id, "aborted" if complete else "abort_incomplete")
            return complete
        chain = self._chain(txn_id)
        complete = self.peer_independent or chain is None or all(
            self.network.is_alive(p) for p in chain.peers() if p != self.peer_id
        )
        # An origin whose share a failed invocation already aborted
        # closed then; this abort has nothing left to close.
        self._backward_recover(txn_id, outcome="aborted" if complete else "abort_incomplete")
        return complete

    # ------------------------------------------------------------------
    # participant role: service execution (callee side of §3.2)
    # ------------------------------------------------------------------

    def handle_invoke(self, request: InvokeRequest) -> Outcome:
        """Execute a service for a remote invoker under its transaction."""
        self._check_alive()
        self._injected_disconnect(request.method_name, "before_execute")
        self._check_alive()
        params = tuple(sorted(request.params.items()))
        known = self.manager.contexts.get(request.txn_id)
        kept = known.kept_frame(request.method_name, params) if known else None
        if kept is not None:
            # Exactly-once across failover: a parent that failed over
            # re-runs its delegations, and this peer already completed
            # this exact invocation for the same transaction.  Return
            # the previous result — §3.3(b)'s "reuse, don't redo" applied
            # callee-side — from a frame now answering to this invocation.
            kept.invoker, kept.edge_id = request.sender, request.edge_id
            self.network.metrics.incr("invocations_deduped")
            return kept.outcome
        transaction = Transaction(request.txn_id, request.origin_peer)
        context = self.manager.begin(
            transaction, parent_peer=request.sender, service_name=request.method_name
        )
        if request.chain is not None:
            context.chain = request.chain
        for method, fragments in request.reused_fragments.items():
            context.incoming_reuse[method] = list(fragments)
        with self.network.spans.span(
            f"service:{request.method_name}",
            "service",
            peer=self.peer_id,
            txn_id=request.txn_id,
            attrs={"sender": request.sender},
        ):
            self._txn_stack.append(request.txn_id)
            # This execution is one frame of the share: what it logs and
            # invokes is undone with it, and only with it.
            frame = context.open_frame(
                request.sender, request.edge_id, request.method_name, params
            )
            try:
                self._injected_fault(request.method_name, "before_execute")
                response = self._execute_local_service(
                    request.txn_id, request.method_name, request.params
                )
                # Fig. 1's failure shape: the peer fails *while processing*
                # the service, after nested invocations.
                self._injected_fault(request.method_name, "after_execute")
                self._injected_disconnect(request.method_name, "after_local_work")
                self._check_alive()
                compensations = self._collect_compensations(
                    request.txn_id, context, response
                )
                # No liveness check: a peer dying here has its work complete
                # but undelivered — the network reports the death.
                self._injected_disconnect(request.method_name, "before_return")
                if self.parent_watch_interval is not None:
                    self._arm_parent_watch(request.txn_id, frame)
                my_chain = self._chain(request.txn_id)
                # Share hand-off: the entries behind these fragments must be
                # durable before the invoker acts on the result.
                self._wal_barrier()
                result = Outcome(
                    fragments=response.fragments,
                    provider_peer=self.peer_id,
                    compensations=compensations,
                    nodes_affected=response.nodes_affected,
                    chain=my_chain.copy() if my_chain is not None else None,
                )
                if self.network.replication.is_replicated_method(request.method_name):
                    # Only replicated services can be legitimately re-invoked
                    # (a failed-over parent re-running its delegations); for
                    # them, keep the outcome for dedup until the share commits.
                    frame.outcome = result
                return result
            except ServiceFault:
                # §3.2 steps 1-2, callee side: undo this frame and tell the
                # peers it invoked; then let the fault travel back to my
                # invoker.  (A PeerDisconnected needs nothing here: either I
                # died mid-execution — dead peers take no actions — or an
                # unrecoverable child failure already triggered my backward
                # recovery in invoke().)
                if not self.disconnected:
                    self._backward_recover(request.txn_id, [frame], exclude_peer=request.sender)
                raise
            finally:
                context.open_frames.remove(frame)
                self._txn_stack.pop()

    def _injected_fault(self, method_name: str, point: str) -> None:
        """Raise the named fault scripted for this execution point."""
        fault_name = self.network.injector.check_fault(self.peer_id, method_name, point)
        if fault_name is not None:
            raise ServiceFault(
                fault_name, f"injected fault in {method_name}@{self.peer_id}"
            )

    def _injected_disconnect(self, method_name: str, point: str) -> None:
        """Fire any disconnection/crash scripted for this execution point."""
        self.network.injector.check_disconnect(self.peer_id, method_name, point)

    def _execute_local_service(
        self, txn_id: str, method_name: str, params: Dict[str, str]
    ) -> ServiceResponse:
        # Services log their own changes through record_changes() the
        # moment they make them (see ServiceHost), so nothing is logged
        # here — by return time the log already covers this execution.
        try:
            service = self.registry.lookup(method_name)
            response = service.execute(params, self)
        except ServiceFault:
            raise
        except (ServiceNotFound, UpdateError, ServiceError) as exc:
            # Surface execution problems as *named faults* so the §3.2
            # machinery handles them: the callee aborts its share and the
            # caller's handlers (retry, alternative peer, …) get a shot.
            raise ServiceFault(type(exc).__name__, str(exc)) from exc
        self.network.metrics.record_forward_cost(response.nodes_affected)
        return response

    def _collect_compensations(
        self, txn_id: str, context: TransactionContext, response: ServiceResponse
    ) -> List[tuple]:
        """Own compensating definition + those gathered from children."""
        if not self.peer_independent:
            return []
        compensations: List[tuple] = list(context.received_compensations)
        context.received_compensations = []
        if response.records:
            plan_xml = self.manager.build_compensation_xml(
                txn_id, response.records, response.document_name
            )
            compensations.append((self.peer_id, plan_xml))
        return compensations

    # ------------------------------------------------------------------
    # recovery internals
    # ------------------------------------------------------------------

    def _try_forward_recovery(
        self,
        txn_id: str,
        edge: InvocationEdge,
        params: Dict[str, str],
        exc: ReproError,
        policies: Optional[Sequence[FaultPolicy]],
    ) -> RecoveryDecision:
        target_peer, method_name = edge.target_peer, edge.method_name
        fault_name = fault_name_of(exc)
        available = list(policies or self.fault_policies.get(method_name, []))
        policy = select_policy(available, fault_name)
        if policy is None:
            return RecoveryDecision.unhandled()

        def reinvoke(peer: str, method: str, p: Dict[str, str]) -> List[str]:
            # Hand any redirected results we hold (§3.3b) to the retry
            # target so orphaned children's work is reused, not redone.
            return self._send_invoke(
                self.manager.context(txn_id), peer, method, p,
                self.take_redirected(txn_id), edge.edge_id,
            ).fragments

        # The replication layer offers "the most-caught-up live replica"
        # as a per-retry failover target — only for services it actually
        # replicated, and only when the policy names no explicit
        # alternative (an explicit ``axml:sc`` replica always wins).
        select_alternative = None
        if not policy.alternative_peer:
            select_alternative = self.network.replication.failover_selector(
                target_peer, method_name
            )
        decision = attempt_forward_recovery(
            policy,
            target_peer,
            method_name,
            params,
            reinvoke=reinvoke,
            wait=self.network.clock.advance,
            original_target_alive=lambda: self.network.is_alive(target_peer),
            select_alternative=select_alternative,
        )
        if (
            decision.handled
            and decision.alternative_used
            and select_alternative is not None
            and not policy.alternative_peer
        ):
            # Route the transaction's chain around the dead primary —
            # including when it was an interior node (its subtree
            # re-parents onto the replica).
            self.reroute_chain(txn_id, target_peer, decision.alternative_used)
        return decision

    def _backward_recover(
        self, txn_id: str, frames: Optional[List[InvocationFrame]] = None,
        exclude_peer: str = "", outcome: str = "aborted",
    ) -> None:
        """Undo *frames* (and the frames nested in them) and tell the peers
        they invoked with an Abort naming those invocations; ``None`` —
        the transaction aborts — undoes the whole share, and its Abort
        names none.  A participant's last frames go as its whole share.
        ``exclude_peer`` is the peer the failure came from (it has already
        recovered itself) or the parent (the re-raise informs it).  An
        origin undoing its whole share closes the transaction as
        *outcome*."""
        context = self.manager.live_context(txn_id)
        if context is None:
            return
        if frames is not None:
            frames = [f for f in frames if f in context.frames]
            if not frames:
                return
        edges = context.edges_of(frames)
        discarded = sum(1 for e in edges if e.completed)
        if discarded:
            self.network.metrics.record_discarded_invocation(discarded)
        whole = frames is None or (
            not context.is_origin and len(context.scope(frames)) == len(context.frames)
        )
        executed = self._abort_share(txn_id) if whole else self.manager.abort_frames(txn_id, frames)
        self.network.metrics.record_value("compensation_depth", executed)
        self.network.metrics.incr("local_aborts" if whole else "partial_aborts")
        if whole and context.is_origin:
            self._close_origin(txn_id, outcome)
        failed = frames[0].method_name if frames else context.service_name or ""
        named = () if frames is None else tuple(e.edge_id for e in edges)
        self._tell(dict.fromkeys(e.target_peer for e in edges),  # once each, in order
                   AbortMessage(txn_id, self.peer_id, failed, edge_ids=named), but=(exclude_peer,))

    def _abort_share(self, txn_id: str) -> int:
        """Compensate whatever share of the transaction this peer holds,
        frames and their kept outcomes included, and cancel its
        continuous work; returns the compensating actions executed."""
        self._cancel_pending_work(txn_id)
        if self.manager.live_context(txn_id) is None:
            return 0
        return self.manager.abort_local(txn_id)

    def _arm_parent_watch(self, txn_id: str, frame: InvocationFrame) -> None:
        """Probe *frame*'s invoker until the commit/abort decision arrives.

        A participant whose invoker dies *after* the results were
        delivered is an in-doubt orphan: no Abort can reach it (the dead
        peer was the only one who knew about it).  The keep-alive probe
        is its §3.3 self-defense — on detecting the invoker's death it
        undoes the frames it ran for that invoker, cascading to their
        children.
        """
        parent = frame.invoker
        interval = self.parent_watch_interval

        def probe() -> None:
            context = self.manager.live_context(txn_id)
            if self.disconnected or context is None or frame not in context.frames:
                return
            if self.network.ping(self.peer_id, parent):
                self.network.events.schedule(interval, probe)
                return
            self.mark_doomed(txn_id)
            self._backward_recover(txn_id, [f for f in context.frames if f.invoker == parent])
            self.network.metrics.incr("orphan_self_aborts")

        self.network.events.schedule(interval, probe)

    # ------------------------------------------------------------------
    # disconnection handling (§3.3)
    # ------------------------------------------------------------------

    def on_return_failure(self, request: InvokeRequest, result: Outcome) -> None:
        """§3.3(b): we finished a service but our invoker died.

        With chaining: push the results (and compensating definitions) up
        the chain to the first alive ancestor — "as soon as AP6 detects
        the disconnection of AP3, it can send the results directly to
        AP2" — trying "the next closest peer … or the closest super peer"
        when AP2 is gone too.  Without chaining: the work is discarded
        (the naive baseline's loss of effort).
        """
        txn_id = request.txn_id
        self.mark_doomed(txn_id)
        chain = self._chain(txn_id)
        dead_parent = request.sender
        for ancestor in chain.ancestors_of(dead_parent) if chain else ():
            if ancestor == self.peer_id or not self.network.is_alive(ancestor):
                continue
            notice = DisconnectNotice(
                txn_id, dead_parent, self.peer_id, self.network.clock.now
            )
            redirect = RedirectedResult(
                txn_id,
                self.peer_id,
                dead_parent,
                request.method_name,
                list(result.fragments),
                list(result.compensations),
            )
            self.network.notify(self.peer_id, ancestor, notice)
            self.network.notify(self.peer_id, ancestor, redirect)
            self.network.metrics.incr("results_redirected")
            return
        # Nobody to hand the results to: the work is lost.
        context = self.manager.contexts.get(txn_id)
        if context is not None and (
            any(e.completed for e in context.invocations)
            or self.manager.log.entries_for(txn_id)
        ):
            self.network.metrics.record_discarded_invocation()
        self._abort_share(txn_id)

    def check_child_liveness(self, txn_id: str) -> List[str]:
        """§3.3(c): ping my chain children; handle any detected death.

        Returns the dead children found.  For each, the chain tells us
        the orphaned descendants: we inform them (preventing wasted
        effort) and can reuse any redirected results they already sent.
        """
        self._check_alive()
        chain = self._chain(txn_id)
        if chain is None:
            return []
        dead: List[str] = []
        for child in chain.children_of(self.peer_id):
            if self.network.ping(self.peer_id, child):
                continue
            dead.append(child)
            self.mark_doomed(txn_id)
            informed = self._tell(
                chain.orphan_notice_targets(child, self.peer_id, self.chain_scope),
                DisconnectNotice(txn_id, child, self.peer_id, self.network.clock.now),
            )
            if informed:
                self.network.metrics.incr("descendants_informed", informed)
        return dead

    def report_stream_timeout(self, txn_id: str, silent_sibling: str) -> None:
        """§3.3(d): a sibling's continuous data stream went silent.

        "A sibling would be aware of another sibling's disconnection if
        it doesn't receive data at the specified interval."  We verify
        with a ping, then use the chain to notify the dead sibling's
        parent and children.
        """
        self._check_alive()
        if self.network.ping(self.peer_id, silent_sibling):
            return  # false alarm: the stream was merely late
        chain = self._chain(txn_id)
        if chain is None:
            return
        self._tell(
            chain.sibling_notice_targets(
                silent_sibling, self.peer_id, self.chain_scope
            ),
            DisconnectNotice(
                txn_id, silent_sibling, self.peer_id, self.network.clock.now
            ),
        )

    # ------------------------------------------------------------------
    # notifications
    # ------------------------------------------------------------------

    def on_notify(self, message: object) -> None:
        if self.disconnected:
            return
        if isinstance(message, AbortMessage):
            self._on_abort_message(message)
        elif isinstance(message, CommitMessage):
            if self.manager.has_context(message.txn_id):
                self._commit_local_and_ship(message.txn_id)
            self.manager.forget(message.txn_id)
        elif isinstance(message, CompensationRequest):
            # §3.2: execute without knowing it is compensation.
            self.manager.apply_compensation_xml(message.plan_xml)
            self.network.metrics.incr("peer_independent_compensations")
        elif isinstance(message, DisconnectNotice):
            self._on_disconnect_notice(message)
        elif isinstance(message, RedirectedResult):
            context = self.manager.contexts.get(message.txn_id)
            if context is not None:
                context.redirected[message.method_name] = list(message.fragments)
                for provider, plan_xml in message.compensations:
                    context.record_compensation_definition(provider, plan_xml)
            self.network.metrics.incr("redirected_results_received")
        elif isinstance(message, WalShipMessage):
            self.network.replication.on_ship(self.peer_id, message)
        elif isinstance(message, WalShipAck):
            self.network.replication.on_ack(self.peer_id, message)

    def _on_abort_message(self, message: AbortMessage) -> None:
        """§3.2 step 2: a peer whose invoker aborted compensates the
        frames it ran for the invocations the Abort names — its whole
        share when it names none, or when a restart rebuilt the share
        from the log without frames — and cascades to its children."""
        txn_id = message.txn_id
        context = self.manager.live_context(txn_id)
        if context is None:
            return
        frames = None
        if message.edge_ids and context.frames:
            frames = [f for f in context.frames if f.edge_id in message.edge_ids]
            if not frames:
                return  # those invocations' frames are undone already
        self.network.metrics.incr("aborts_received")
        self._backward_recover(txn_id, frames, exclude_peer=message.from_peer)

    def _on_disconnect_notice(self, message: DisconnectNotice) -> None:
        """A peer involved in one of our transactions disconnected.

        Stop burning effort on the doomed transaction (the §3.3(c)
        rationale: "prevent them from wasting effort").  Recovery itself
        is driven by whichever peer owns the failed invocation edge.
        """
        self.mark_doomed(message.txn_id)
        self._cancel_pending_work(message.txn_id)
        self.network.metrics.incr("disconnect_notices_received")

    # ------------------------------------------------------------------
    # continuous (subscription) work — effort accounting for §3.3
    # ------------------------------------------------------------------

    def add_pending_work(self, txn_id: str, units: int, unit_duration: float) -> None:
        """Schedule *units* of ongoing work for this peer's share of the
        transaction (none without a share).

        Each unit consumes virtual time when it fires; units belonging to
        a transaction this peer knows is doomed are counted as wasted —
        unless a notification cancelled them first.  This is the §3.3
        effort model: early notification saves the un-fired units.
        """
        context = self.manager.contexts.get(txn_id)
        if context is None:
            return
        for i in range(units):
            context.work.append(
                self.network.events.schedule(
                    (i + 1) * unit_duration, lambda t=txn_id: self._do_work_unit(t)
                )
            )

    def _do_work_unit(self, txn_id: str) -> None:
        if self.disconnected:
            return
        self.network.metrics.incr("work_units_done")
        if self.is_doomed(txn_id):
            self.network.metrics.incr("work_units_wasted")

    def _cancel_pending_work(self, txn_id: str) -> None:
        context = self.manager.contexts.get(txn_id)
        if context is not None:
            context.cancel_work()

    # ------------------------------------------------------------------
    # crash (process death: volatile state lost, disk survives)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Kill this peer's process: every volatile structure is lost.

        Unlike a *disconnection* (state intact, links down), a crash
        drops the in-memory operation log, transaction contexts, chain
        views, reuse caches and pending work.  Hosted documents model
        the peer's durable store and survive, as does the synced part of
        the WAL directory when ``durability`` is enabled — that WAL is the only
        route back to compensating in-flight shares after a restart
        (:meth:`rejoin`).

        The executing-transaction stack is deliberately left alone: a
        crash mid-service unwinds through ``handle_invoke``'s normal
        exception path, which pops its own frame.
        """
        self.network.disconnect(self.peer_id)
        self.disconnected = True
        self.manager.crash()
        self.network.metrics.incr("peer_crashes")

    # ------------------------------------------------------------------
    # rejoin (the P2P churn story: peers "joining and leaving arbitrarily")
    # ------------------------------------------------------------------

    def rejoin(self) -> int:
        """Rejoin the network with every recovered share in doubt.

        The restart itself is
        :meth:`repro.txn.manager.TransactionManager.recover`: the log is
        refilled — from disk when a durable WAL is attached
        (``durability=``), where in-memory contexts are gone but the log
        survives; otherwise from whatever the in-memory log still holds
        — and every recovered transaction gets an ``ACTIVE`` context that
        waits for :meth:`resolve_in_doubt`.  Compensating on restart
        instead would be wrong after a *crash*: a share whose invocation
        completed before the crash may belong to a transaction that
        globally committed, and undoing it would undo committed work
        (§3.2).  A caller that knows the rest of the system aborted
        around this peer settles each live share with
        ``resolve_in_doubt(txn_id, committed=False)``.

        With checkpointing enabled, recovery restores any document
        snapshot the latest valid checkpoint carried for a document this
        peer no longer holds in memory (hosted documents normally model
        the durable store and survive a crash, so existing documents are
        never overwritten).

        Returns the number of transactions rebuilt as in-doubt.
        """
        self.network.reconnect(self.peer_id)
        self.disconnected = False
        recovered = self.manager.recover(self._restore_lost_documents)
        self.network.metrics.incr("peer_rejoins")
        # Replica copies on this peer may have missed ships while it
        # was gone; schedule them for a settlement resync.
        self.network.replication.on_peer_rejoined(self.peer_id)
        return recovered

    def _restore_lost_documents(self) -> None:
        """Re-host checkpointed documents this peer no longer holds."""
        if self.wal is not None:
            for name, xml in sorted(self.wal.last_recovery.documents.items()):
                if name not in self.documents:
                    self.documents[name] = AXMLDocument.from_xml(xml, name=name)

    # ------------------------------------------------------------------
    # settlement (driven by external harnesses, e.g. repro.chaos)
    # ------------------------------------------------------------------

    def resolve_in_doubt(self, txn_id: str, committed: bool) -> str:
        """Settle a share left without a decision; returns what was done.

        A participant that was disconnected (or whose decision message
        was lost) ends the run with an ``ACTIVE`` context.  Once the
        transaction's global outcome is known — from the origin, which
        under the paper's protocol is the single commit point — the
        share either commits locally (log truncated, effects kept) or
        compensates.  Returns ``"committed"``, ``"aborted"`` or
        ``"noop"`` (no context / already settled).
        """
        context = self.manager.live_context(txn_id)
        if context is None:
            return "noop"
        if committed and context.state is TransactionState.ACTIVE:
            self._commit_local_and_ship(txn_id)
            return "committed"
        self._abort_share(txn_id)
        return "aborted"

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def _peer_is_super(self, peer_id: str) -> bool:
        try:
            peer = self.network.get_peer(peer_id)
        except ReproError:
            return False
        return bool(getattr(peer, "super_peer", False))

    def _check_alive(self) -> None:
        if self.disconnected:
            raise PeerDisconnected(self.peer_id)

    def __repr__(self) -> str:
        flags = [flag for flag, on in (("super", self.super_peer),
                                       ("disconnected", self.disconnected)) if on]
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return (
            f"AXMLPeer({self.peer_id!r}, docs={len(self.documents)}, "
            f"services={len(self.registry)}{suffix})"
        )
