"""Protocol trace recording.

Wraps a :class:`SimNetwork` so every interaction — invocation, result,
failure, notification — is appended to an ordered trace.  Tests
assert exact protocol message sequences (the executable equivalent of
the paper's prose walk-throughs), and the CLI/examples can print traces
as human-readable protocol transcripts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import PeerDisconnected, ReproError, ServiceFault
from repro.p2p.messages import InvokeRequest, message_kind
from repro.p2p.network import SimNetwork


class TraceAttachError(ReproError):
    """Raised when recorders detach out of nesting order.

    Two recorders may wrap the same network, but they must unwind
    innermost-first: detaching the outer one first would restore *its*
    saved methods — the inner recorder's wrappers — and leave the inner
    recorder permanently installed with no way to remove it.
    """


@dataclass(frozen=True)
class TraceEvent:
    """One recorded interaction."""

    time: float
    kind: str  # invoke | result | fault | disconnected | notify
    source: str
    target: str
    detail: str = ""

    def __str__(self) -> str:
        arrow = "->" if self.kind in ("invoke", "notify") else "<-"
        return (
            f"[{self.time:8.4f}] {self.source:>6} {arrow} {self.target:<6} "
            f"{self.kind}({self.detail})"
        )


class TraceRecorder:
    """Records every network interaction, in order."""

    def __init__(self, network: SimNetwork):
        self.network = network
        self.events: List[TraceEvent] = []
        self._original_rpc = network.rpc
        self._original_notify = network.notify
        self._attached = True
        network.rpc = self._rpc
        network.notify = self._notify

    # -- wrappers -----------------------------------------------------------

    def _record(self, kind: str, source: str, target: str, detail: str) -> None:
        self.events.append(
            TraceEvent(self.network.clock.now, kind, source, target, detail)
        )

    def _rpc(self, source_id: str, target_id: str, request: InvokeRequest):
        self._record("invoke", source_id, target_id, request.method_name)
        try:
            result = self._original_rpc(source_id, target_id, request)
        except ServiceFault as fault:
            self._record("fault", target_id, source_id,
                         f"{request.method_name}:{fault.fault_name}")
            raise
        except PeerDisconnected as exc:
            self._record("disconnected", target_id, source_id, exc.peer_id)
            raise
        self._record("result", target_id, source_id, request.method_name)
        return result

    def _notify(self, source_id: str, target_id: str, message: object) -> bool:
        detail = message_kind(message)
        txn_id = getattr(message, "txn_id", "")
        if txn_id:
            detail = f"{detail}:{txn_id}"
        self._record("notify", source_id, target_id, detail)
        return self._original_notify(source_id, target_id, message)

    # -- reading ----------------------------------------------------------------

    def detach(self) -> None:
        """Restore the network methods this recorder wrapped.

        Nesting-safe: detaching is only legal while this recorder's
        wrappers are still the installed ones.  If another recorder
        attached on top and has not detached yet, restoring our saved
        originals would wipe its wrappers out of the chain and corrupt
        the network's methods — so that raises instead.  Detaching an
        already-detached recorder is a no-op.
        """
        if not self._attached:
            return
        if self.network.rpc != self._rpc or self.network.notify != self._notify:
            raise TraceAttachError(
                "cannot detach: another recorder is still attached on top "
                "of this one (detach recorders innermost-first)"
            )
        self.network.rpc = self._original_rpc
        self.network.notify = self._original_notify
        self._attached = False

    def transcript(self) -> str:
        return "\n".join(str(event) for event in self.events)

    def __len__(self) -> int:
        return len(self.events)
