"""Metrics collection for experiments.

One :class:`MetricsCollector` is shared by the network, the peers and
the transaction managers of a simulation.  Counters map directly to the
quantities EXPERIMENTS.md reports:

* ``messages`` / ``pings`` / ``aborts_sent`` — protocol traffic;
* ``invocations`` / ``invocations_discarded`` / ``invocations_reused``
  — loss of effort under disconnection (§3.3's objective is to
  "minimize loss of effort … and reuse already performed work");
* ``nodes_affected_forward`` / ``nodes_affected_compensation`` — the
  paper's cost measure, "the number of XML nodes affected (traversed)"
  (§3.2);
* detection events with their virtual-time latency.

Alongside the counters, named :class:`repro.obs.histogram.Histogram`
distributions capture the quantities a single integer cannot — RPC
latency, detection latency, compensation depth, chain length — and
:meth:`MetricsCollector.to_dict` exports everything JSON-safe (no
``Infinity``/``NaN``; :func:`repro.obs.export.stable_json` writes it).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, DefaultDict, Dict, List, Optional

from repro.obs.prof import PROF
from repro.obs.histogram import Histogram


@dataclass
class DetectionEvent:
    """One disconnection detection: who noticed whom, and how fast."""

    disconnected_peer: str
    detected_by: str
    disconnect_time: float
    detect_time: float

    @property
    def latency(self) -> float:
        return self.detect_time - self.disconnect_time

    def to_dict(self) -> Dict[str, Any]:
        return {
            "disconnected_peer": self.disconnected_peer,
            "detected_by": self.detected_by,
            "disconnect_time": self.disconnect_time,
            "detect_time": self.detect_time,
            "latency": self.latency,
        }


class MetricsCollector:
    """Shared counters and histograms for one simulation run."""

    def __init__(self) -> None:
        self.counters: DefaultDict[str, int] = defaultdict(int)
        self.detections: List[DetectionEvent] = []
        #: txn id → outcome string ("committed" / "aborted" / "stuck")
        self.txn_outcomes: Dict[str, str] = {}
        #: name → distribution (rpc_latency, detection_latency, …).
        self.histograms: Dict[str, Histogram] = {}

    # -- counters -------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    # -- histograms -----------------------------------------------------

    def histogram(self, name: str) -> Histogram:
        """The named histogram, created on first use."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name)
        return histogram

    def record_value(self, name: str, value: float) -> None:
        """Record one sample into the named histogram."""
        self.histogram(name).record(value)

    def percentile(self, name: str, p: float) -> Optional[float]:
        """The named histogram's *p*-th percentile; None when unsampled."""
        histogram = self.histograms.get(name)
        return None if histogram is None else histogram.percentile(p)

    def p50(self, name: str) -> Optional[float]:
        return self.percentile(name, 50)

    def p99(self, name: str) -> Optional[float]:
        return self.percentile(name, 99)

    # -- convenience recorders --------------------------------------------

    def record_message(self, kind: str) -> None:
        self.incr("messages")
        self.incr(f"messages.{kind}")
        PROF.incr("messages_sent")

    def record_invocation(self) -> None:
        self.incr("invocations")

    def record_discarded_invocation(self, count: int = 1) -> None:
        """Completed work thrown away during recovery (loss of effort)."""
        self.incr("invocations_discarded", count)

    def record_reused_invocation(self) -> None:
        """Completed work salvaged through chaining (§3.3b)."""
        self.incr("invocations_reused")

    def record_forward_cost(self, nodes: int) -> None:
        self.incr("nodes_affected_forward", nodes)

    def record_detection(
        self,
        disconnected_peer: str,
        detected_by: str,
        disconnect_time: float,
        detect_time: float,
    ) -> None:
        event = DetectionEvent(
            disconnected_peer, detected_by, disconnect_time, detect_time
        )
        self.detections.append(event)
        self.record_value("detection_latency", event.latency)

    def record_txn_outcome(self, txn_id: str, outcome: str) -> None:
        self.txn_outcomes[txn_id] = outcome

    # -- summaries ------------------------------------------------------------

    def detection_latency(
        self, disconnected_peer: Optional[str] = None
    ) -> Optional[float]:
        """Earliest detection latency for a peer (or across all peers).

        Returns ``None`` when nothing was detected — never ``inf``,
        which would serialize as invalid JSON ``Infinity``.
        """
        events = [
            e
            for e in self.detections
            if disconnected_peer is None or e.disconnected_peer == disconnected_peer
        ]
        if not events:
            return None
        return min(e.latency for e in events)

    def outcome_counts(self) -> Dict[str, int]:
        out: DefaultDict[str, int] = defaultdict(int)
        for outcome in self.txn_outcomes.values():
            out[outcome] += 1
        return dict(out)

    def snapshot(self) -> Dict[str, int]:
        return dict(self.counters)

    # -- export ---------------------------------------------------------------

    def to_dict(self, include_values: bool = True) -> Dict[str, Any]:
        """Everything the collector holds, as a JSON-safe dict.

        ``include_values`` keeps the raw histogram samples beside each
        summary.
        """
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: histogram.to_dict(include_values=include_values)
                for name, histogram in sorted(self.histograms.items())
            },
            "detections": [event.to_dict() for event in self.detections],
            "txn_outcomes": dict(sorted(self.txn_outcomes.items())),
            "detection_latency": self.detection_latency(),
        }

    def __repr__(self) -> str:
        keys = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        return f"MetricsCollector({keys})"
