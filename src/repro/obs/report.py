"""Run summaries: one structured dict, one human-readable rendering.

``repro report`` and the benchmark artifacts both flow through
:func:`run_summary` — the machine-readable shape — and the CLI renders
it with :func:`render_report`.  Both take the collectors duck-typed
(anything with the :class:`repro.sim.metrics.MetricsCollector` /
:class:`repro.obs.spans.SpanCollector` surface) so this module stays
import-light.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.export import sanitize_for_json
from repro.obs.prof import profile_summary


def run_summary(metrics: Any, spans: Any = None) -> Dict[str, Any]:
    """The machine-readable summary of one run (JSON-safe).

    Keys: ``outcomes`` (txn outcome counts), ``counters``, ``messages``
    (per-kind breakdown), ``histograms`` (per-name scalar summaries),
    ``detection_latency`` (earliest, or ``None``), and — when a span
    collector is given — ``spans`` (counts) and ``slowest_spans``.
    """
    counters = dict(metrics.snapshot())
    messages = {
        key[len("messages."):]: value
        for key, value in counters.items()
        if key.startswith("messages.")
    }
    summary: Dict[str, Any] = {
        "outcomes": metrics.outcome_counts(),
        "counters": counters,
        "messages": messages,
        "histograms": {
            name: histogram.summary()
            for name, histogram in sorted(metrics.histograms.items())
        },
        "detections": len(metrics.detections),
        "detection_latency": metrics.detection_latency(),
    }
    chaos = {
        key: value for key, value in counters.items() if key.startswith("chaos_")
    }
    if chaos:
        # Chaos-harness accounting (repro.chaos): runs swept, oracle
        # violations, shares settled after the fact.
        summary["chaos"] = chaos
    sharding = {
        key: value
        for key, value in counters.items()
        if key == "migrations"
        or key.startswith(("shard_", "ring_", "migration_"))
    }
    if sharding:
        # Elastic-sharding accounting (repro.p2p.sharding): ring
        # membership churn, key moves, live migrations and their
        # disruption (deferred txns, WAL-tail entries shipped).
        # Absent entirely for non-sharded runs, so their summaries
        # stay byte-identical.
        summary["sharding"] = sharding
    profile = profile_summary(counters)
    if profile:
        # Hot-path micro-profile (repro.obs.prof): index hits vs. tree
        # walks, event-queue churn, derived index hit rate.
        summary["profile"] = profile
    if spans is not None:
        summary["spans"] = spans.summary()
        summary["slowest_spans"] = [
            {
                "name": span.name,
                "kind": span.kind,
                "peer": span.peer,
                "status": span.status,
                "duration": span.duration,
            }
            for span in spans.slowest()
        ]
    return sanitize_for_json(summary)


def _format_value(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_report(metrics: Any, spans: Any = None, title: str = "run report") -> str:
    """Render :func:`run_summary` as an aligned text report."""
    summary = run_summary(metrics, spans)
    lines: List[str] = [f"== {title} =="]

    outcomes = summary["outcomes"]
    lines.append("-- transaction outcomes --")
    if outcomes:
        for outcome, count in sorted(outcomes.items()):
            lines.append(f"  {outcome:<18} {count}")
    else:
        lines.append("  (none)")

    lines.append("-- message breakdown --")
    messages = summary["messages"]
    total = summary["counters"].get("messages", 0)
    lines.append(f"  {'total':<22} {total}")
    for kind, count in sorted(messages.items()):
        lines.append(f"  {kind:<22} {count}")

    lines.append("-- latency & depth histograms --")
    if summary["histograms"]:
        lines.append(
            f"  {'name':<22} {'n':>5} {'p50':>9} {'p95':>9} {'max':>9}"
        )
        for name, hist in summary["histograms"].items():
            lines.append(
                f"  {name:<22} {hist['count']:>5}"
                f" {_format_value(hist['p50']):>9}"
                f" {_format_value(hist['p95']):>9}"
                f" {_format_value(hist['max']):>9}"
            )
    else:
        lines.append("  (none)")
    lines.append(
        "  detection latency (earliest): "
        f"{_format_value(summary['detection_latency'])}"
    )

    if "chaos" in summary:
        lines.append("-- chaos --")
        for name, value in sorted(summary["chaos"].items()):
            lines.append(f"  {name:<22} {value}")

    if "sharding" in summary:
        lines.append("-- sharding --")
        for name, value in sorted(summary["sharding"].items()):
            lines.append(f"  {name:<22} {value}")

    if "profile" in summary:
        lines.append("-- hot-path profile --")
        for name, value in sorted(summary["profile"].items()):
            lines.append(f"  {name:<22} {_format_value(value)}")

    if spans is not None:
        span_summary = summary["spans"]
        lines.append("-- spans --")
        lines.append(
            f"  total={span_summary['total']} open={span_summary['open']}"
        )
        by_kind = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(span_summary["by_kind"].items())
        )
        if by_kind:
            lines.append(f"  by kind: {by_kind}")
        by_status = ", ".join(
            f"{status}={count}"
            for status, count in sorted(span_summary["by_status"].items())
        )
        if by_status:
            lines.append(f"  by status: {by_status}")
        if summary["slowest_spans"]:
            lines.append("-- slowest spans --")
            for span in summary["slowest_spans"]:
                lines.append(
                    f"  {_format_value(span['duration']):>9}s"
                    f"  {span['kind']:<13} {span['name']:<28}"
                    f" @{span['peer'] or '-':<5} [{span['status']}]"
                )
    return "\n".join(lines)
