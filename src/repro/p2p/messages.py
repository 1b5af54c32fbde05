"""Message types exchanged between peers.

Invocations are synchronous in the simulation (the caller blocks for the
result, as a SOAP call would); everything else — aborts, disconnect
notices, redirected results — travels as one-way notifications (a
keep-alive ping is a network call, :meth:`SimNetwork.ping`).
All messages are plain dataclasses; the network layer counts and
delivers them.

Every message class carries a lowercase protocol ``KIND`` — the single
naming scheme used by metrics keys (``messages.abort``) and trace
details, matching the ``invoke``/``result``/``ping`` names the RPC path
already used.  :func:`message_kind` resolves it for any message object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.p2p.chain import PeerChain
    from repro.txn.wal import LogEntry


def message_kind(message: object) -> str:
    """The lowercase protocol name of *message* (``abort``, ``commit``, …).

    Falls back to the lowercased class name for foreign message types so
    metrics keys stay in one scheme even for test doubles.
    """
    kind = getattr(type(message), "KIND", None)
    if isinstance(kind, str) and kind:
        return kind
    return type(message).__name__.lower()


@dataclass
class InvokeRequest:
    """A service invocation: "Invoke method M for transaction T".

    ``chain`` piggybacks a snapshot of the active-peer chain (§3.3) that
    the callee adopts as its view; ``None`` when chaining is disabled
    (the naive baseline).  The reply is an :class:`repro.outcome.Outcome`.
    """

    KIND: ClassVar[str] = "invoke"

    txn_id: str
    origin_peer: str
    sender: str
    method_name: str
    params: Dict[str, str] = field(default_factory=dict)
    chain: Optional["PeerChain"] = None
    #: Pre-materialized parameter results reused from an orphaned child
    #: (§3.3b: "passing the materialized results directly while invoking
    #: S3 on APX").
    reused_fragments: Dict[str, List[str]] = field(default_factory=dict)
    #: The caller's run-unique id for this invocation (edge).
    edge_id: int = field(default=0, repr=False)


@dataclass
class AbortMessage:
    """"Abort T_A" (§3.2's nested recovery protocol).

    A receiver undoes the frames it ran for the invocations ``edge_ids``
    names — its whole share when it names none (T aborts as a whole)."""

    KIND: ClassVar[str] = "abort"

    txn_id: str
    from_peer: str
    failed_method: str = ""
    reason: str = ""
    edge_ids: Tuple[int, ...] = field(default=(), repr=False)


@dataclass
class DisconnectNotice:
    """Notification that a peer was observed disconnected (§3.3)."""

    KIND: ClassVar[str] = "disconnect_notice"

    txn_id: str
    disconnected_peer: str
    detected_by: str
    detect_time: float = 0.0


@dataclass
class RedirectedResult:
    """Results a child pushes past its dead parent (§3.3b).

    When AP6 cannot return S6's results to the disconnected AP3, it sends
    them up the chain to AP2: the grandparent can reuse the work when it
    forward-recovers S3 on a replacement peer.
    """

    KIND: ClassVar[str] = "redirected_result"

    txn_id: str
    from_peer: str
    dead_parent: str
    method_name: str
    fragments: List[str] = field(default_factory=list)
    compensations: List[tuple] = field(default_factory=list)


@dataclass
class CommitMessage:
    """Origin → participants: the transaction committed; release state."""

    KIND: ClassVar[str] = "commit"

    txn_id: str
    from_peer: str


@dataclass
class CompensationRequest:
    """Peer-independent compensation (§3.2): "a peer trying to perform
    recovery … can directly invoke the compensating services on their
    original peers".  The receiver executes the plan without knowing it
    is compensation."""

    KIND: ClassVar[str] = "compensation"

    txn_id: str
    plan_xml: str
    from_peer: str


@dataclass
class WalShipMessage:
    """Primary → replica: a batch of committed, shipped WAL entries.

    ``entries`` are the :class:`~repro.txn.wal.LogEntry` objects the
    source logged, parsed action included — a simulated ship moves no
    byte out of the process, and an entry is never mutated after append.
    Their ``entry_to_xml`` frame is the disk form only.
    ``first_seq``/``last_seq`` bound the batch in the source peer's seq
    space."""

    KIND: ClassVar[str] = "wal_ship"

    from_peer: str
    to_peer: str
    entries: Tuple["LogEntry", ...] = ()
    first_seq: int = 0
    last_seq: int = 0


@dataclass
class WalShipAck:
    """Replica → primary: the acked high-water mark of one ship channel.

    "I have applied your entries up to ``acked_seq``"."""

    KIND: ClassVar[str] = "wal_ship_ack"

    from_peer: str
    to_peer: str
    acked_seq: int = 0
