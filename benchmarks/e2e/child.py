"""One repeat of one workload in a fresh process; prints one JSON line.

Phases: ``setup_s`` runs from the parent's spawn timestamp to the entry
of ``TransactionScheduler.run`` (interpreter start, imports, cluster
build, fault plan, workload generation, submission); ``work_s`` from
that entry until the driver returns (event loop, settlement, oracle or
document verification, WAL close).  The split is one timestamp hook on
that public method — the only wrapper in an untraced run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence


class WorkPhase:
    """Timestamps and counter snapshots taken when the work phase starts."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.started = False
        self.epoch = 0.0
        self.wall0 = 0.0
        self.cpu0 = 0.0
        self.metrics = None
        self.counters0: Dict[str, int] = {}
        self.prof0: Dict[str, int] = {}

    def install(self) -> None:
        from repro.obs.prof import PROF
        from repro.sim.scheduler import TransactionScheduler

        inner = TransactionScheduler.run
        phase = self

        def run(scheduler, *args, **kwargs):
            if not phase.started:
                phase.started = True
                phase.metrics = scheduler.network.metrics
                phase.counters0 = dict(phase.metrics.counters)
                phase.prof0 = PROF.snapshot()
                if phase.tracer is not None:
                    phase.tracer.reset()
                phase.epoch = time.time()
                phase.cpu0 = time.process_time()
                phase.wall0 = time.perf_counter()
            return inner(scheduler, *args, **kwargs)

        TransactionScheduler.run = run


#: Counters read from the run's ``MetricsCollector`` ...
METRIC_COUNTERS = (
    "wal_appends", "wal_bytes", "wal_batch_flushes", "checkpoints",
    "checkpoint_bytes", "recovery_replay_entries", "ship_frames", "ship_bytes",
    "replica_applied_entries", "failovers", "migrations",
    "migration_deferred_txns", "sched_retries",
)
#: ... and from the process-wide ``PROF``, as deltas over the work phase.
PROF_COUNTERS = (
    "eventq_fired", "messages_sent", "directory_lookups", "entry_codec_hits",
    "entry_codec_misses", "query_index_hits", "query_tree_walks",
    "index_rank_rebuilds", "serialize_tree_builds", "serialize_cache_hits",
    "serialize_cache_misses",
)


def run_once(workload: str, seed: int, traced: bool, smoke: bool, spawned_at: float) -> Dict[str, Any]:
    from repro.obs.prof import PROF

    from benchmarks.e2e.harness import percentile
    from benchmarks.e2e.tracing import Tracer
    from benchmarks.e2e.workloads import RUNNERS

    tracer: Optional[Tracer] = None
    if traced:
        tracer = Tracer()
        tracer.install()
    phase = WorkPhase(tracer)
    phase.install()

    outcome = RUNNERS[workload](seed, smoke)

    if not phase.started:
        raise RuntimeError("TransactionScheduler.run was never entered")
    work_s = time.perf_counter() - phase.wall0
    cpu_s = time.process_time() - phase.cpu0
    prof = PROF.delta_since(phase.prof0)
    counts = {"submitted": len(outcome.results)}
    for name in METRIC_COUNTERS:
        counts[name] = phase.metrics.get(name) - phase.counters0.get(name, 0)
    for name in PROF_COUNTERS:
        counts[name] = prof.get(name, 0)
    record: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_s": phase.epoch - spawned_at,
        "work_s": work_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "violations": sorted(outcome.violations),
        "statuses": dict(sorted(Counter(r.status for r in outcome.results).items())),
        # Everything below must be bit-equal for one (workload, seed):
        # the program's own counts and the virtual-clock latencies
        # (arrival -> commit, committed transactions, milliseconds).
        "counts": counts,
        "latencies_ms": sorted(1000.0 * r.latency for r in outcome.results if r.committed),
    }
    if tracer is not None:
        report = tracer.report(work_s)
        tracer.uninstall()
        steps: List[float] = report.pop("step_durations")
        report["step_ms_p50"] = 1000.0 * percentile(steps, 50)
        report["step_ms_p99"] = 1000.0 * percentile(steps, 99)
        record["trace"] = report
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="parent's time.time() just before the spawn")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()

    import repro

    # The program under test is the checkout's own source, never a copy
    # installed elsewhere on the machine.
    expected = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(repro.__file__).startswith(expected + os.sep):
        print(f"repro imported from {repro.__file__}, expected under {expected}",
              file=sys.stderr)
        return 2
    record = run_once(args.workload, args.seed, bool(args.trace), args.smoke, spawned_at)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
