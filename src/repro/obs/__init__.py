"""Structured observability: spans, histograms, JSON export, reports.

The paper evaluates its protocols by counting messages, pings and
"the number of XML nodes affected" (§3.2–§3.3); this package grows that
into a first-class monitoring subsystem, the way production P2P XML
platforms (ViP2P, the WebContent XML Store) treat tracing:

* :mod:`repro.obs.spans` — hierarchical spans over virtual time
  (transaction → service invocation → compensation step), emitted by
  the network, the peers and the transaction managers, counted as they
  close and kept whole only by a recording started before the run;
* :mod:`repro.obs.histogram` — latency/size distributions with
  percentiles, recorded alongside the flat counters;
* :mod:`repro.obs.export` — stable, strictly valid JSON artifacts
  (sorted keys, no ``Infinity``/``NaN``) for cross-run trajectories;
* :mod:`repro.obs.report` — the ``repro report`` run summary;
* :mod:`repro.obs.prof` — hot-path micro-profiler: index hits vs. tree
  walks, event-queue ops, message counts, wall-clock timers.
"""

from repro.obs.export import sanitize_for_json, stable_json, write_json_artifact
from repro.obs.histogram import Histogram
from repro.obs.prof import PROF, Profiler, profile_summary, profiled
from repro.obs.report import render_report, run_summary
from repro.obs.spans import Span, SpanCollector, SpanRecording

__all__ = [
    "Histogram",
    "PROF",
    "Profiler",
    "Span",
    "SpanCollector",
    "SpanRecording",
    "profile_summary",
    "profiled",
    "render_report",
    "run_summary",
    "sanitize_for_json",
    "stable_json",
    "write_json_artifact",
]
