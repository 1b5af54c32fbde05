"""A concurrent multi-transaction scheduler over the virtual clock.

The paper's experiments (§3) drive one root transaction at a time; the
throughput questions its conclusion raises — how does a compensation +
OCC stack behave *under load*? — need many in-flight transactions
interleaving over the shared :class:`~repro.sim.kernel.EventQueue`.

This module supplies that engine.  Each logical client transaction is a
:class:`TxnSpec`; the :class:`TransactionScheduler` admits specs up to a
``max_inflight`` cap (excess arrivals wait in a FIFO backlog), executes
each spec's operations as individual events spaced ``op_gap`` apart (so
concurrent transactions interleave at operation granularity), and
commits at the end.  An OCC :class:`~repro.txn.occ.ValidationConflict`
at commit is not terminal: the scheduler backs off (seeded exponential
backoff with jitter) and retries with a *fresh* transaction, up to
``max_attempts``.  Failures (a spec's ``fail_at`` knob, or an execution
error) abort and are terminal.

Everything is deterministic: arrivals, backoff jitter and workloads draw
from :class:`~repro.sim.rng.SeededRng` streams, and all interleaving is
decided by the event queue's (time, sequence) order — two runs with the
same seed produce byte-identical metrics and span trees.

Per-transaction accounting lands in the shared metrics collector:

* counters ``sched_admitted`` / ``sched_queued`` / ``sched_retries`` /
  ``sched_committed`` / ``sched_aborted_conflict`` /
  ``sched_aborted_failure``;
* histograms ``txn_latency`` (arrival → commit, committed only),
  ``retries`` (per finished transaction) and ``inflight`` (sampled at
  every admission/completion transition).

Span shape: each logical client transaction owns one detached
``client`` span; every attempt's transaction span nests under it via
``begin_transaction(parent_span=...)`` — so a retried conflict shows up
as *sibling* attempt spans under one client span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import PeerDisconnected, ReproError
from repro.obs.spans import Span
from repro.p2p.network import SimNetwork
from repro.query.ast import UpdateAction
from repro.sim.rng import SeededRng
from repro.txn.occ import ValidationConflict


@dataclass(frozen=True)
class InvokeOp:
    """A remote service invocation as one scheduled operation.

    Local operations are update actions; an ``InvokeOp`` instead calls
    ``method_name`` on ``target_peer`` under the transaction (enlisting
    the provider — and whatever it delegates to — in the invocation
    tree).  ``params`` accepts a dict and is normalized to a sorted
    tuple of pairs so specs stay hashable and frozen.
    """

    target_peer: str
    method_name: str
    params: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "params", tuple(sorted(dict(self.params).items()))
        )

    @property
    def params_dict(self) -> Dict[str, str]:
        return dict(self.params)


#: One operation of a spec: a parsed action, its XML text, or a remote
#: invocation.
Operation = Union[UpdateAction, str, InvokeOp]

#: Terminal outcomes a transaction can reach under the scheduler.
COMMITTED = "committed"
ABORTED_CONFLICT = "aborted_conflict"
ABORTED_FAILURE = "aborted_failure"

#: Retry backoff after an OCC conflict: ``BACKOFF_BASE *
#: BACKOFF_FACTOR ** (attempt - 1)`` virtual seconds, times a seeded
#: jitter in [0.5, 1.5).
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class TxnSpec:
    """One logical client transaction, ready to be scheduled.

    ``operations`` run in order on the origin peer; ``fail_at`` (an
    operation index) makes the client abandon the transaction right
    before that operation — the injected-failure knob of the throughput
    experiments.
    """

    label: str
    origin: str
    operations: Tuple[Operation, ...]
    fail_at: Optional[int] = None

    def __post_init__(self) -> None:
        # Tolerate lists at construction; store a tuple (frozen value).
        object.__setattr__(self, "operations", tuple(self.operations))


@dataclass(frozen=True)
class TxnResult:
    """The terminal accounting record of one scheduled transaction."""

    label: str
    status: str  # committed | aborted_conflict | aborted_failure
    attempts: int
    arrival_time: float
    finish_time: float
    txn_ids: Tuple[str, ...] = ()

    @property
    def latency(self) -> float:
        return self.finish_time - self.arrival_time

    @property
    def committed(self) -> bool:
        return self.status == COMMITTED

    @property
    def retries(self) -> int:
        return self.attempts - 1


@dataclass
class _TxnState:
    """Mutable bookkeeping for one in-flight logical transaction."""

    spec: TxnSpec
    arrival_time: float
    attempt: int = 0
    txn_id: str = ""
    txn_ids: List[str] = field(default_factory=list)
    client_span: Optional[Span] = None
    on_complete: Optional[Callable[[TxnResult], None]] = None


class TransactionScheduler:
    """Interleaves many root transactions over one simulated network.

    Usage::

        scheduler = TransactionScheduler(network, max_inflight=4, seed=7)
        for spec in specs:
            scheduler.submit(spec, at_time=arrival)
        results = scheduler.run()

    or, closed-loop::

        scheduler.run_closed_loop(
            clients=4, txns_per_client=10, make_spec=..., think_time=0.05
        )
    """

    def __init__(
        self,
        network: SimNetwork,
        max_inflight: int = 4,
        max_attempts: int = 5,
        op_gap: float = 0.01,
        seed: int = 0,
    ):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.network = network
        self.max_inflight = max_inflight
        self.max_attempts = max_attempts
        #: Virtual seconds between consecutive operations of one txn —
        #: the interleaving granularity of the engine.
        self.op_gap = op_gap
        self.rng = SeededRng(seed)
        self.results: List[TxnResult] = []
        self._inflight = 0
        self._backlog: List[_TxnState] = []
        #: Transactions :meth:`run` must wait for.  Closed-loop mode
        #: pre-counts its whole plan here, because its later submissions
        #: only materialize as earlier transactions finish.
        self._expected = 0

    # -- arrival generation --------------------------------------------

    def submit(
        self,
        spec: TxnSpec,
        at_time: float = 0.0,
        on_complete: Optional[Callable[[TxnResult], None]] = None,
    ) -> None:
        """Schedule *spec* to arrive at absolute virtual time *at_time*."""
        self._expected += 1
        self._enqueue(spec, at_time, on_complete)

    def _enqueue(
        self,
        spec: TxnSpec,
        at_time: float,
        on_complete: Optional[Callable[[TxnResult], None]] = None,
    ) -> None:
        state = _TxnState(spec, at_time, on_complete=on_complete)
        self.network.events.schedule_at(at_time, lambda: self._arrive(state))

    def submit_open_loop(self, specs: Sequence[TxnSpec], rate: float) -> List[float]:
        """Open-loop (Poisson) arrivals: one spec per exponential gap.

        Returns the arrival times (useful for asserting determinism).
        """
        from repro.sim.workload import poisson_arrival_times

        times = poisson_arrival_times(self.rng, rate, len(specs))
        for spec, at_time in zip(specs, times):
            self.submit(spec, at_time)
        return times

    def run_closed_loop(
        self,
        clients: int,
        txns_per_client: int,
        make_spec: Callable[[int, int], TxnSpec],
        think_time: float = 0.0,
    ) -> None:
        """Closed-loop load: *clients* clients, each running
        *txns_per_client* transactions back-to-back with an exponential
        think time (mean *think_time*) between completions and the next
        submission.  ``make_spec(client_index, txn_index)`` builds each
        transaction.  Call :meth:`run` afterwards to execute.
        """
        # The whole plan counts up-front: later submissions materialize
        # lazily (each client submits txn i+1 only once txn i finished),
        # so run() must not stop at the first momentary results==expected.
        self._expected += clients * txns_per_client

        def think(mean: float) -> float:
            if mean <= 0:
                return 0.0
            return self.rng.expovariate(1.0 / mean)

        def next_txn(client: int, index: int) -> None:
            if index >= txns_per_client:
                return
            spec = make_spec(client, index)

            def done(_result: TxnResult, c: int = client, i: int = index) -> None:
                delay = think(think_time)
                self.network.events.schedule(delay, lambda: next_txn(c, i + 1))

            self._enqueue(spec, self.network.clock.now + think(think_time), done)

        for client in range(clients):
            next_txn(client, 0)

    # -- admission control ---------------------------------------------

    def _arrive(self, state: _TxnState) -> None:
        if self._inflight >= self.max_inflight:
            self._backlog.append(state)
            self.network.metrics.incr("sched_queued")
            return
        self._admit(state)

    def _admit(self, state: _TxnState) -> None:
        self._inflight += 1
        self.network.metrics.incr("sched_admitted")
        self.network.metrics.record_value("inflight", self._inflight)
        self._start_attempt(state)

    def _release_slot(self) -> None:
        self._inflight -= 1
        self.network.metrics.record_value("inflight", self._inflight)
        if self._backlog and self._inflight < self.max_inflight:
            self._admit(self._backlog.pop(0))

    # -- one attempt ----------------------------------------------------

    def _start_attempt(self, state: _TxnState) -> None:
        state.attempt += 1
        spans = self.network.spans
        if state.client_span is None:
            state.client_span = spans.start(
                f"client:{state.spec.label}",
                "client",
                peer=state.spec.origin,
                detached=True,
                label=state.spec.label,
            )
        origin = self.network.get_peer(state.spec.origin)
        transaction = origin.begin_transaction(
            parent_span=state.client_span, attempt=str(state.attempt)
        )
        state.txn_id = transaction.txn_id
        state.txn_ids.append(transaction.txn_id)
        self._schedule_op(state, 0)

    def _schedule_op(self, state: _TxnState, index: int) -> None:
        self.network.events.schedule(self.op_gap, lambda: self._run_op(state, index))

    def _run_op(self, state: _TxnState, index: int) -> None:
        spec = state.spec
        origin = self.network.get_peer(spec.origin)
        if spec.fail_at is not None and index == spec.fail_at:
            # The client abandons mid-transaction: backward recovery.
            self._abort_quietly(origin, state.txn_id)
            self._finish(state, ABORTED_FAILURE)
            return
        if index >= len(spec.operations):
            self._try_commit(state)
            return
        try:
            operation = spec.operations[index]
            if isinstance(operation, InvokeOp):
                target = self._route_invoke(operation)
                origin.invoke(
                    state.txn_id,
                    target,
                    operation.method_name,
                    operation.params_dict,
                )
            else:
                origin.submit(state.txn_id, operation)
        except ReproError:
            # Execution failed (service fault that backward-recovered to
            # the origin, a disconnected provider, update error, ...) —
            # the share is already compensated; account and finish.
            if origin.manager.live_context(state.txn_id) is not None:
                self._abort_quietly(origin, state.txn_id)
            self._finish(state, ABORTED_FAILURE)
            return
        self._schedule_op(state, index + 1)

    def _route_invoke(self, operation: InvokeOp) -> str:
        """Pick the peer to invoke, rerouting around a dead primary.

        Unreplicated services use the spec's target verbatim.  When the
        planned target of a *replicated* service is dead at dispatch
        time, the invocation goes straight to the most-preferred alive
        holder instead of failing at the origin and waiting for forward
        recovery to rediscover the same fact.

        Shard-placed services route through the placement directory
        first: under elastic sharding the workload's static target is
        only a hint, and the directory knows where the primary lives
        *now* (possibly mid-migration).  Non-sharded methods fall
        through with ``route_service`` returning ``None``.
        """
        routed = self.network.directory.route_service(operation.method_name)
        if routed is not None:
            return routed
        if self.network.is_alive(operation.target_peer):
            return operation.target_peer
        if not self.network.replication.is_replicated_method(operation.method_name):
            return operation.target_peer
        for holder in self.network.directory.service_holders(operation.method_name):
            if self.network.is_alive(holder):
                self.network.metrics.incr("scheduler_reroutes")
                return holder
        return operation.target_peer

    @staticmethod
    def _abort_quietly(origin, txn_id: str) -> None:
        """Abort, tolerating an origin that died under chaos injection.

        A dead origin takes no actions; its share is settled later
        (``resolve_in_doubt``) when it returns.  Without this guard one
        dead origin would crash the whole scheduler run.
        """
        try:
            origin.abort(txn_id)
        except PeerDisconnected:
            pass

    def _try_commit(self, state: _TxnState) -> None:
        origin = self.network.get_peer(state.spec.origin)
        try:
            origin.commit(state.txn_id)
        except ValidationConflict:
            self._handle_conflict(state)
            return
        except PeerDisconnected:
            # The origin died right before the decision: nobody commits.
            self._finish(state, ABORTED_FAILURE)
            return
        self._finish(state, COMMITTED)

    def _handle_conflict(self, state: _TxnState) -> None:
        """First-committer-wins lost: back off and retry, or give up."""
        if state.attempt >= self.max_attempts:
            self._finish(state, ABORTED_CONFLICT)
            return
        self.network.metrics.incr("sched_retries")
        # Exponential backoff with seeded jitter; the admission slot is
        # held through the backoff (the client is still "in the system").
        delay = (
            BACKOFF_BASE
            * (BACKOFF_FACTOR ** (state.attempt - 1))
            * (0.5 + self.rng.random())
        )
        self.network.events.schedule(delay, lambda: self._start_attempt(state))

    # -- completion -----------------------------------------------------

    def _finish(self, state: _TxnState, status: str) -> None:
        now = self.network.clock.now
        result = TxnResult(
            label=state.spec.label,
            status=status,
            attempts=state.attempt,
            arrival_time=state.arrival_time,
            finish_time=now,
            txn_ids=tuple(state.txn_ids),
        )
        self.results.append(result)
        metrics = self.network.metrics
        metrics.incr(f"sched_{status}")
        metrics.record_value("retries", result.retries)
        if status == COMMITTED:
            metrics.record_value("txn_latency", result.latency)
        if state.client_span is not None:
            self.network.spans.end(state.client_span, status=status)
        if state.on_complete is not None:
            state.on_complete(result)
        self._release_slot()

    # -- driving --------------------------------------------------------

    def run(self, max_events: int = 1_000_000) -> List[TxnResult]:
        """Step the event queue until every submitted txn finished.

        Uses the kernel's step-driven primitive so in-flight transactions
        interleave one event at a time, deterministically.
        """
        steps = 0
        while len(self.results) < self._expected:
            if not self.network.events.step():
                raise RuntimeError(
                    f"event queue drained with {self._expected - len(self.results)}"
                    " transactions unfinished"
                )
            steps += 1
            if steps >= max_events:
                raise RuntimeError(f"scheduler storm: more than {max_events} events")
        return list(self.results)

    # -- inspection -----------------------------------------------------

    def outcome_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for result in self.results:
            out[result.status] = out.get(result.status, 0) + 1
        return out
