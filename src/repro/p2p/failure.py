"""Failure injection.

:class:`FailureInjector` scripts the failures an experiment wants:
named service faults (consumed by §3.2's fault handlers) and peer
disconnections triggered either at protocol points — *before* a service
executes, *after* its local work, *before its results return* (the
§3.3(b) window) — or at absolute virtual times.

Keep-alive detection for the cases where nobody is blocked on the dead
peer (§3.3(c): "AP2 detects the disconnection of AP3 via ping (or
keep-alive) messages") is the protocol's own:
:meth:`repro.p2p.peer.AXMLPeer.check_child_liveness` over
:meth:`repro.p2p.network.SimNetwork.ping`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only (network imports failure)
    from repro.p2p.network import SimNetwork

#: Injection points inside a service execution.
POINTS = ("before_execute", "after_local_work", "before_return")


def crash_and_restart(network: "SimNetwork", peer_id: str, restart_delay: float):
    """Crash *peer_id* now and restart it *restart_delay* later.

    A crash (``AXMLPeer.crash``) loses all volatile state; the restart
    is ``rejoin()``: the peer recovers its log from the durable WAL and
    rebuilds in-doubt contexts for a later commit/abort decision.  A
    peer already dead is left alone (returns ``None``, else the crashed
    peer).  The restart is scheduled unconditionally — settlement's
    ``run_all()`` fires it even when nothing else is pending, so no
    crashed peer is left dead (and un-recovered) at oracle time.
    """
    peer = network.get_peer(peer_id)
    if peer.disconnected:
        return None
    peer.crash()
    network.events.schedule(
        restart_delay,
        lambda: peer.rejoin() if peer.disconnected else None,
    )
    return peer


class FailureInjector:
    """Deterministic, scripted failures for one simulation run."""

    def __init__(self, network: SimNetwork):
        self.network = network
        #: (peer, method, point) → fault the next execution raises.
        self._faults: Dict[Tuple[str, str, str], str] = {}
        #: (trigger_peer, method, point) → peer to disconnect ("" = spent).
        self._disconnects: Dict[Tuple[str, str, str], str] = {}
        #: (trigger_peer, method, point) → (dead peer, restart delay);
        #: "" as dead peer = spent.
        self._crashes: Dict[Tuple[str, str, str], Tuple[str, float, bool]] = {}

    # -- scripting ---------------------------------------------------------

    def fault_service(
        self,
        peer_id: str,
        method_name: str,
        fault_name: str,
        point: str = "before_execute",
    ) -> None:
        """Make the next execution of the service raise a fault (one-shot).

        ``point`` selects *when* the fault strikes: ``before_execute``
        (no work done) or ``after_execute`` — the Fig. 1 shape, where AP5
        "fails while processing S5" after having already invoked S6 on
        AP6.  Arming both points faults two executions in a row, which
        outlasts a single retry.
        """
        if point not in ("before_execute", "after_execute"):
            raise ValueError(f"unknown fault point {point!r}")
        self._faults[(peer_id, method_name, point)] = fault_name

    def disconnect_peer_during(
        self,
        dead_peer: str,
        trigger_peer: str,
        method_name: str,
        point: str = "after_local_work",
    ) -> None:
        """Disconnect *dead_peer* when *trigger_peer* reaches an execution
        point of *method_name*.

        This expresses §3.3(b) exactly: script
        ``disconnect_peer_during("AP3", "AP6", "S6")`` and AP3 dies while
        AP6 is still processing S6 — AP6 then "detects the disconnection
        of AP3 while trying to return the results of processing service
        S6".  With *dead_peer* = *trigger_peer* the executing peer itself
        dies (``point="before_return"``: work complete but undelivered).
        """
        if point not in POINTS:
            raise ValueError(f"unknown injection point {point!r}; use one of {POINTS}")
        self._disconnects[(trigger_peer, method_name, point)] = dead_peer

    def crash_peer_during(
        self,
        peer_id: str,
        method_name: str,
        point: str = "after_local_work",
        restart_delay: float = 0.5,
        tear_checkpoint: bool = False,
    ) -> None:
        """Crash *peer_id* when it reaches an execution point of
        *method_name*, then restart it *restart_delay* later.

        A crash loses all volatile state — unlike a scripted
        disconnection, which only severs links (:func:`crash_and_restart`).

        ``tear_checkpoint`` models the crash landing *inside* a
        checkpoint publish: the newest checkpoint file is truncated to
        half its length, so recovery must detect the torn file and fall
        back to the previous checkpoint with a longer replay.
        """
        if point not in POINTS:
            raise ValueError(f"unknown injection point {point!r}; use one of {POINTS}")
        self._crashes[(peer_id, method_name, point)] = (
            peer_id, restart_delay, tear_checkpoint
        )

    def disconnect_at(self, peer_id: str, time: float) -> None:
        """Disconnect *peer_id* at an absolute virtual time."""
        self.network.events.schedule_at(
            time, lambda: self.network.disconnect(peer_id)
        )

    # -- hooks consulted by peers -----------------------------------------------

    def check_fault(
        self, peer_id: str, method_name: str, point: str = "before_execute"
    ) -> Optional[str]:
        """The fault name to raise now, or None.  Consumes the script."""
        return self._faults.pop((peer_id, method_name, point), None)

    def check_disconnect(self, peer_id: str, method_name: str, point: str) -> bool:
        """Fire any disconnect scripted for this execution point (one-shot).

        Returns True when the *executing* peer itself was disconnected.
        """
        key = (peer_id, method_name, point)
        crash = self._crashes.get(key)
        if crash and crash[0]:
            dead_peer, delay, tear = crash
            self._crashes[key] = ("", 0.0, False)
            peer = crash_and_restart(self.network, dead_peer, delay)
            if tear and peer is not None and peer.wal is not None:
                # The crash lands mid-publish: tear the newest
                # checkpoint so recovery exercises the fallback path.
                from repro.txn.checkpoint import CheckpointStore

                CheckpointStore(
                    peer.wal.policy.directory, peer.peer_id
                ).tear_newest()
            if dead_peer == peer_id:
                return True
        dead_peer = self._disconnects.get(key)
        if not dead_peer:
            return False
        self._disconnects[key] = ""
        self.network.disconnect(dead_peer)
        return dead_peer == peer_id
