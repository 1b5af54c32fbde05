"""The simulated P2P network.

Service invocations are synchronous calls with virtual-time latency
(the caller blocks, as in SOAP); aborts/notices/redirects are one-way
notifications; pings probe liveness.  Peer disconnection is modelled by
a flag checked at every interaction point, so a peer can "die" at any
protocol step — including *between* a service finishing and its results
returning (the §3.3(b) window).

The network knows nothing about transactions; peers implement the
protocols on top of these primitives.  It owns what every layer reads
without asking whether it exists: the placement directory, replication
manager, failure injector, metrics, spans and event queue.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional, Protocol, Union

from repro.errors import PeerDisconnected, UnknownPeer
from repro.obs.spans import SpanCollector
from repro.outcome import Outcome
from repro.p2p.failure import FailureInjector
from repro.p2p.messages import InvokeRequest, message_kind
from repro.p2p.replication import ReplicationManager
from repro.p2p.sharding import PlacementDirectory
from repro.sim.kernel import Clock, EventQueue
from repro.sim.metrics import MetricsCollector


class NetworkPeer(Protocol):
    """What the network requires of a registered peer."""

    peer_id: str
    disconnected: bool

    def handle_invoke(self, request: InvokeRequest) -> Outcome: ...

    def on_notify(self, message: object) -> None: ...

    def on_return_failure(self, request: InvokeRequest, result: Outcome) -> None: ...


#: Verdict a message hook may return for one notification: ``None``
#: (deliver normally), ``"drop"`` (lose the message), or a positive
#: float (deliver after that many extra virtual seconds).
MessageVerdict = Union[None, str, float]

#: ``hook(source_id, target_id, message) -> MessageVerdict``.
MessageHook = Callable[[str, str, object], MessageVerdict]


#: Virtual seconds one message hop takes (an rpc is two hops).
HOP_LATENCY = 0.005


class SimNetwork:
    """Synchronous-RPC network over a virtual clock."""

    def __init__(self):
        self.clock = Clock()
        self.events = EventQueue(self.clock)
        self.metrics = MetricsCollector()
        self.spans = SpanCollector(now=lambda: self.clock.now)
        #: Every registered peer by id, in registration order: the one
        #: peer map (``Cluster.peers`` reads it).
        self.peers: Dict[str, NetworkPeer] = {}
        #: Virtual time each peer disconnected at (for detection latency).
        self.disconnect_times: Dict[str, float] = {}
        #: Optional chaos hook consulted for every one-way notification
        #: (see :meth:`set_message_hook`); ``None`` = pristine network.
        self.message_hook: Optional[MessageHook] = None
        #: The placement directory: who holds which document/service.
        #: Routing layers ask it before dispatch; a non-sharded run is
        #: a directory with no sharded methods.
        self.directory = PlacementDirectory(self)
        #: Replica placement, WAL shipping and failover; with nothing
        #: replicated it ships nothing and offers no failover target.
        self.replication = ReplicationManager(self)
        #: Scripted faults and disconnections; empty unless scripted.
        self.injector = FailureInjector(self)
        #: Run-scoped fragment serial (see :func:`next_fragment_serial`):
        #: a module-global counter here would leak across sweep cells in
        #: one process while forked parallel workers start fresh,
        #: breaking serial↔parallel summary byte-identity.
        self._fragment_serial = 0
        self._edge_ids = itertools.count(1)  # likewise run-scoped

    def next_fragment_serial(self) -> int:
        """The next distribution serial for this network (1-based)."""
        self._fragment_serial += 1
        return self._fragment_serial

    def next_edge_id(self) -> int:
        """A run-unique id for one invocation edge, which an Abort names."""
        return next(self._edge_ids)

    # -- membership -------------------------------------------------------

    def register(self, peer: NetworkPeer) -> NetworkPeer:
        self.peers[peer.peer_id] = peer
        return peer

    def get_peer(self, peer_id: str) -> NetworkPeer:
        try:
            return self.peers[peer_id]
        except KeyError:
            raise UnknownPeer(f"no peer {peer_id!r} in the network")

    def disconnect(self, peer_id: str) -> None:
        """Mark *peer_id* as having left the network (§1: arbitrarily)."""
        peer = self.get_peer(peer_id)
        if not peer.disconnected:
            peer.disconnected = True
            self.disconnect_times[peer_id] = self.clock.now
            self.metrics.incr("disconnections")

    def reconnect(self, peer_id: str) -> None:
        """Bring a peer back (it keeps its documents but lost txn state)."""
        self.get_peer(peer_id).disconnected = False

    def is_alive(self, peer_id: str) -> bool:
        peer = self.peers.get(peer_id)
        return peer is not None and not peer.disconnected

    # -- detection bookkeeping ----------------------------------------------

    def record_detection(self, disconnected_peer: str, detected_by: str) -> None:
        self.metrics.record_detection(
            disconnected_peer,
            detected_by,
            self.disconnect_times.get(disconnected_peer, self.clock.now),
            self.clock.now,
        )

    # -- primitives -----------------------------------------------------------

    def rpc(self, source_id: str, target_id: str, request: InvokeRequest) -> Outcome:
        """Synchronous service invocation with latency accounting.

        Raises :class:`PeerDisconnected` naming whichever peer's death
        broke the call: the target (detected by the caller) or — after a
        successful execution whose results cannot be delivered because
        the *caller* died — the source (§3.3b; the target's
        ``on_return_failure`` hook has then already run).

        Every call gets a span (kind ``rpc``) and a sample in the
        ``rpc_latency`` histogram, success or failure alike.
        """
        self.metrics.record_message("invoke")
        started = self.clock.now
        try:
            with self.spans.span(
                f"rpc:{request.method_name}",
                "rpc",
                peer=source_id,
                txn_id=request.txn_id,
                attrs={"target": target_id},
            ):
                return self._rpc_deliver(source_id, target_id, request)
        finally:
            self.metrics.record_value("rpc_latency", self.clock.now - started)

    def _rpc_deliver(
        self, source_id: str, target_id: str, request: InvokeRequest
    ) -> Outcome:
        """The unobserved RPC protocol: deliver, execute, return."""
        self.clock.advance(HOP_LATENCY)
        target = self.get_peer(target_id)
        if target.disconnected:
            self.record_detection(target_id, source_id)
            raise PeerDisconnected(target_id)
        try:
            result = target.handle_invoke(request)
        except PeerDisconnected as exc:
            if target.disconnected and exc.peer_id != target_id:
                # The target died mid-execution; normalize so the caller
                # sees its own callee as the disconnected party.
                self.record_detection(target_id, source_id)
                raise PeerDisconnected(target_id) from exc
            raise
        if target.disconnected:
            # Died between finishing and returning: caller sees a death.
            self.record_detection(target_id, source_id)
            raise PeerDisconnected(target_id)
        self.clock.advance(HOP_LATENCY)
        source = self.get_peer(source_id)
        if source.disconnected:
            # §3.3(b): the child holds results it cannot deliver.
            self.record_detection(source_id, target_id)
            target.on_return_failure(request, result)
            raise PeerDisconnected(source_id)
        self.metrics.record_message("result")
        return result

    def set_message_hook(self, hook: Optional[MessageHook]) -> None:
        """Install (or clear) the chaos hook for one-way notifications.

        The hook sees every :meth:`notify` before delivery and may drop
        it (``"drop"``) or delay it (a positive float of extra virtual
        seconds, delivered through the event queue).  RPC traffic is
        *not* hooked: synchronous invocations already have first-class
        failure modes (faults and disconnections); the hook models the
        lossy-asynchronous-messaging dimension on top.
        """
        self.message_hook = hook

    def notify(self, source_id: str, target_id: str, message: object) -> bool:
        """One-way message; returns False when the target is unreachable.

        Message kinds are recorded under their lowercase protocol names
        (``messages.abort``, ``messages.disconnect_notice``, …) — the
        same scheme :meth:`rpc` uses for ``messages.invoke``/``result``.

        With a message hook installed, a notification may be dropped
        (``True`` is *not* returned: the sender learns nothing was
        delivered, as with a dead target) or delayed — then ``True`` is
        returned optimistically (fire-and-forget semantics) and the
        delivery re-checks both endpoints' liveness when it fires.
        """
        self.metrics.record_message(message_kind(message))
        self.clock.advance(HOP_LATENCY)
        if self.message_hook is not None:
            verdict = self.message_hook(source_id, target_id, message)
            if verdict == "drop":
                self.metrics.incr("messages_chaos_dropped")
                self.metrics.incr("messages_dropped")
                return False
            if isinstance(verdict, (int, float)) and not isinstance(verdict, bool) \
                    and verdict > 0:
                self.metrics.incr("messages_chaos_delayed")
                self.events.schedule(
                    float(verdict),
                    lambda: self._deliver_notify(source_id, target_id, message),
                )
                return True
        return self._deliver_notify(source_id, target_id, message)

    def _deliver_notify(self, source_id: str, target_id: str, message: object) -> bool:
        """Final delivery step (shared by immediate and delayed paths)."""
        peer = self.peers.get(target_id)
        if peer is None or peer.disconnected:
            self.metrics.incr("messages_dropped")
            return False
        if source_id in self.peers and self.peers[source_id].disconnected:
            # A dead peer sends nothing.
            self.metrics.incr("messages_dropped")
            return False
        peer.on_notify(message)
        return True

    def ping(self, source_id: str, target_id: str) -> bool:
        """Keep-alive probe (§3.3: "Related P2P research relies on ping
        (or keep-alive) messages to detect peer disconnection")."""
        self.metrics.record_message("ping")
        self.metrics.incr("pings")
        self.clock.advance(2 * HOP_LATENCY)
        alive = self.is_alive(target_id)
        if not alive and target_id in self.peers:
            self.record_detection(target_id, source_id)
        return alive
