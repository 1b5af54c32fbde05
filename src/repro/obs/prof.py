"""Micro-profiler: cheap hot-path counters.

The observability layer (spans, histograms) answers *what happened* in
virtual time; this module answers *why a run was fast or slow* in real
terms: how often the query layer answered from the structural index vs.
re-walking the tree, how many event-queue operations the kernel served,
how many messages crossed the simulated network.

Design constraints:

* **Cheap** — one dict increment per event, no allocation, safe to call
  from the innermost loops (path-step resolution, the event heap).
* **Deterministic where it must be** — counters count logical events, so
  they are identical across reruns and across serial vs. parallel sweep
  execution; they may be merged into a run's
  :class:`~repro.sim.metrics.MetricsCollector` (prefixed ``prof_``)
  without breaking byte-identical summaries.
* **No wall clock** — wall time is not deterministic and would poison
  byte-identical summaries; it is measured from outside the program by
  the BENCH_E2E tracer (``benchmarks/e2e/tracing.py``).

Counter vocabulary used across the codebase::

    query_index_hits      descendant steps answered from the postings index
    query_index_skips     fast path declined (candidates > subtree size)
    query_tree_walks      descendant steps answered by a subtree walk
    query_walk_nodes      elements visited by those walks
    comp_log_lookups      O(1) id lookups for compensation-log targets
    serialize_tree_builds  whole-document renders
    replica_digest_matches  replica pairs the oracle accepted on digest alone
    eventq_scheduled/_fired/_cancelled/_compactions   kernel heap ops
    messages_sent         simulated network sends
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional


class Profiler:
    """A bag of counters."""

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}

    # -- counters (hot path: keep these two lines) ----------------------

    def incr(self, name: str, amount: int = 1) -> None:
        counters = self.counters
        counters[name] = counters.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        return dict(self.counters)

    def delta_since(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter movement since a :meth:`snapshot` (zero deltas dropped)."""
        return {
            name: value - before.get(name, 0)
            for name, value in self.counters.items()
            if value != before.get(name, 0)
        }

    def reset(self) -> None:
        self.counters.clear()

    def hit_rate(self, hits: str, misses: str) -> Optional[float]:
        """``hits / (hits + misses)`` or ``None`` when neither fired."""
        h, m = self.get(hits), self.get(misses)
        total = h + m
        return None if total == 0 else h / total

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        return f"Profiler({inner})"


#: The process-wide profiler every hot path writes to.  Per-run scoping
#: happens through :func:`profiled`, which reads deltas — resetting the
#: global between unrelated measurements is only needed in benchmarks.
PROF = Profiler()

#: Counters that never merge into run summaries: they count how the
#: work was done (document renders, digest-first matches), not what the
#: run did.  The frozen BENCH_E2E harness reads them straight from
#: :data:`PROF`, and run summaries keep the bytes they have always had.
SUMMARY_LOCAL_COUNTERS = frozenset(
    {
        "serialize_tree_builds",
        "replica_digest_matches",
        # Directory consultations happen on every routed invocation —
        # including ones outside the profiled block (settlement,
        # benches poking at clusters) — so the count is cache-like
        # bookkeeping, not a logical run event.
        "directory_lookups",
    }
)


@contextmanager
def profiled(metrics: Any = None) -> Iterator[Profiler]:
    """Capture :data:`PROF` deltas over a block.

    When *metrics* (a :class:`~repro.sim.metrics.MetricsCollector`) is
    given, the block's counter deltas are merged into it as ``prof_*``
    so they surface in ``repro report`` and the run's JSON summary —
    except the :data:`SUMMARY_LOCAL_COUNTERS`.
    """
    before = PROF.snapshot()
    try:
        yield PROF
    finally:
        if metrics is not None:
            for name, delta in sorted(PROF.delta_since(before).items()):
                if name in SUMMARY_LOCAL_COUNTERS:
                    continue
                metrics.incr("prof_" + name, delta)


def profile_summary(counters: Dict[str, int]) -> Dict[str, Any]:
    """The report-facing view of a run's ``prof_*`` counters.

    Returns the counters (prefix stripped) plus the derived index hit
    rate; empty dict when the run recorded nothing.
    """
    profile = {
        name.removeprefix("prof_"): value
        for name, value in counters.items()
        if name.startswith("prof_")
    }
    if not profile:
        return {}
    hits = profile.get("query_index_hits", 0)
    walks = profile.get("query_tree_walks", 0)
    if hits + walks:
        profile["index_hit_rate"] = round(hits / (hits + walks), 4)
    return profile
