"""Transactions and per-peer transaction contexts (§3.2).

"On submission of a transaction T_A at a peer AP1 (its origin peer), the
peer creates a transaction context TC_A1.  The transaction context,
managed by the transaction manager, is a data structure which
encapsulates the transaction id with all the information required for
concurrency control, commit and recovery of the corresponding
transaction."

One :class:`Transaction` value identifies the global unit; each
participant peer holds its own :class:`TransactionContext` with the
services it invoked on other peers, received compensating-service
definitions (peer-independent mode), its share as
:class:`InvocationFrame` s — the unit every undo names — and §3.3's
recovery state: the chain view, reusable results, the doomed flag,
continuous work and, at the origin, the transaction span.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import TransactionStateError
from repro.txn.wal import LogEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.spans import Span
    from repro.p2p.chain import PeerChain

_txn_counter = itertools.count(1)


class TransactionState(enum.Enum):
    """Lifecycle of a transaction (context)."""

    ACTIVE = "active"
    COMMITTED = "committed"
    COMPENSATING = "compensating"
    ABORTED = "aborted"


#: Legal state transitions.
_TRANSITIONS = {
    TransactionState.ACTIVE: {
        TransactionState.COMMITTED,
        TransactionState.COMPENSATING,
        TransactionState.ABORTED,
    },
    TransactionState.COMPENSATING: {TransactionState.ABORTED},
    TransactionState.COMMITTED: set(),
    TransactionState.ABORTED: set(),
}


@dataclass(frozen=True)
class Transaction:
    """A global transactional unit: "a set of update/query operations"."""

    txn_id: str
    origin_peer: str

    @classmethod
    def begin(cls, origin_peer: str) -> "Transaction":
        return cls(f"T{next(_txn_counter)}", origin_peer)

    def __str__(self) -> str:
        return self.txn_id


@dataclass(eq=False)
class InvocationEdge:
    """One remote invocation made while processing the transaction.

    The recovery protocol (§3.2) propagates "Abort T" messages both to
    "the peers whose services it had invoked" (these edges) and to "the
    peer which had invoked the service" (``TransactionContext.parent_peer``).
    """

    target_peer: str
    method_name: str
    edge_id: int = 0
    completed: bool = False


@dataclass(eq=False)
class InvocationFrame:
    """One service execution for one incoming invocation: the undo unit.

    §3.2: "undo only as much as required".  It holds the entries logged
    and invocations made while it was the innermost executing frame;
    frames opened meanwhile list it in ``enclosing`` and go with it.
    ``outcome`` is its exactly-once result."""

    invoker: str
    edge_id: int
    method_name: str
    params: Tuple[Tuple[str, str], ...] = ()
    enclosing: Tuple["InvocationFrame", ...] = ()
    entries: List[LogEntry] = field(default_factory=list)
    edges: List[InvocationEdge] = field(default_factory=list)
    outcome: Optional[object] = None


class TransactionContext:
    """Per-peer state of one transaction (the paper's ``TC_Ax``)."""

    def __init__(
        self,
        transaction: Transaction,
        peer_id: str,
        parent_peer: Optional[str] = None,
        service_name: Optional[str] = None,
    ):
        self.transaction = transaction
        self.peer_id = peer_id
        #: The peer that invoked a service on us as part of this
        #: transaction (None at the origin peer).
        self.parent_peer = parent_peer
        #: The service we are executing for the parent (None at origin).
        self.service_name = service_name
        self.state = TransactionState.ACTIVE
        #: Outgoing invocations, in execution order.
        self.invocations: List[InvocationEdge] = []
        #: Compensating-service definitions received from providers
        #: (peer-independent compensation, §3.2): provider peer →
        #: serialized CompensationPlan XML, in receipt order.
        self.received_compensations: List[tuple] = []
        #: The share as the frames of the invocations it served, in
        #: arrival order; what an origin does itself is in none.
        self.frames: List[InvocationFrame] = []
        #: Frames executing now, innermost last.
        self.open_frames: List[InvocationFrame] = []
        #: This peer's view of the active-peer chain (§3.3).
        self.chain: Optional["PeerChain"] = None
        #: Results redirected past a dead peer, awaiting reuse: method →
        #: fragments (§3.3b).
        self.redirected: Dict[str, List[str]] = {}
        #: Reuse fragments that arrived piggybacked on an InvokeRequest.
        self.incoming_reuse: Dict[str, List[str]] = {}
        #: The peer learned the transaction is doomed (disconnection
        #: notices); pending continuous work for it is wasted effort.
        self.doomed = False
        #: Handles of the remaining continuous work units.
        self.work: List = []
        #: The origin-side transaction span (detached root).
        self.span: Optional["Span"] = None

    @property
    def txn_id(self) -> str:
        return self.transaction.txn_id

    @property
    def is_origin(self) -> bool:
        return self.parent_peer is None

    # -- state machine ----------------------------------------------------

    def transition(self, new_state: TransactionState) -> None:
        if new_state not in _TRANSITIONS[self.state]:
            raise TransactionStateError(
                f"{self.txn_id}@{self.peer_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    def require_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionStateError(
                f"{self.txn_id}@{self.peer_id} is {self.state.value}, not active"
            )

    @property
    def is_finished(self) -> bool:
        return self.state in (TransactionState.COMMITTED, TransactionState.ABORTED)

    def restart(self, parent_peer: str, service_name: Optional[str]) -> None:
        """A finished participant share invoked again: the parent's retry
        (§3.2 forward recovery) is a new attempt, not a resurrection — the
        old attempt's effects were already compensated — so the share
        starts ``ACTIVE`` with no frames, invocations or received
        compensations, and keeps its §3.3 recovery state."""
        self.parent_peer, self.service_name = parent_peer, service_name
        self.state = TransactionState.ACTIVE
        self.invocations, self.received_compensations, self.frames = [], [], []

    def cancel_work(self) -> None:
        for handle in self.work:
            handle.cancel()
        self.work = []

    # -- bookkeeping ---------------------------------------------------------

    def record_invocation(
        self, target_peer: str, method_name: str, edge_id: int
    ) -> InvocationEdge:
        edge = InvocationEdge(target_peer, method_name, edge_id)
        self.invocations.append(edge)
        if self.open_frames:
            self.open_frames[-1].edges.append(edge)
        return edge

    def record_entry(self, entry: LogEntry) -> None:
        if self.open_frames:
            self.open_frames[-1].entries.append(entry)

    def open_frame(
        self, invoker: str, edge_id: int, method_name: str, params: tuple = ()
    ) -> InvocationFrame:
        frame = InvocationFrame(invoker, edge_id, method_name, params, tuple(self.open_frames))
        self.frames.append(frame)
        self.open_frames.append(frame)
        return frame

    def scope(self, frames: List[InvocationFrame]) -> List[InvocationFrame]:
        """*frames* and the frames nested in them, in arrival order."""
        return [g for g in self.frames if any(f is g or f in g.enclosing for f in frames)]

    def edges_of(self, frames: Optional[List[InvocationFrame]]) -> List[InvocationEdge]:
        """The invocations made in ``scope(frames)`` — by the whole share
        for ``None`` — in execution order."""
        if frames is None:
            return list(self.invocations)
        made = [edge for g in self.scope(frames) for edge in g.edges]
        return [edge for edge in self.invocations if edge in made]

    def detach(self, frames: List[InvocationFrame]) -> List[LogEntry]:
        """Drop ``scope(frames)`` and its invocations from the share;
        returns the entries it logged."""
        gone, made = self.scope(frames), self.edges_of(frames)
        self.frames = [f for f in self.frames if f not in gone]
        self.invocations = [e for e in self.invocations if e not in made]
        return [entry for g in gone for entry in g.entries]

    def kept_frame(self, method_name: str, params: tuple) -> Optional[InvocationFrame]:
        """A held frame that ran this exact call and kept its outcome."""
        return next((
            f for f in self.frames
            if f.outcome is not None and (f.method_name, f.params) == (method_name, params)
        ), None)

    def record_compensation_definition(self, provider_peer: str, plan_xml: str) -> None:
        self.received_compensations.append((provider_peer, plan_xml))

    def __repr__(self) -> str:
        return (
            f"TransactionContext({self.txn_id}@{self.peer_id}, "
            f"state={self.state.value}, "
            f"invoked={list(dict.fromkeys(e.target_peer for e in self.invocations))})"
        )
