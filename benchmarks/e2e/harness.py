"""Parent side: spawn one child per segment, one at a time; guard
against descheduling; check determinism; pool segments into metrics.

One *run* of a workload with seed ``n`` is a fixed number of *segments*.
Segment ``j`` is a fresh child process that builds its own cluster and
workload from sub-seed ``n * 64 + j``.  The program's cost and virtual
latency depend on what the seed draws (ring and replica placement, which
services a transaction invokes, the fault schedule) far more than on
run length, so a run pools several independent draws: throughput is
total commits over total work seconds, latency percentiles are taken
over the union of the segments' samples.

``BENCHMARK.json`` at the repository root is the registry of workload
and metric names: the harness computes every value it knows and a
missing name is an error, so the file and the code cannot drift apart.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: The work one segment was sized to on the reference box; a run of
#: ``seconds`` is ``round(seconds / SEGMENT_NOMINAL_S)`` segments.
SEGMENT_NOMINAL_S = 2.5
SMOKE_SEGMENTS = 2
#: A segment whose wall time exceeds its CPU time by more than this was
#: descheduled (the load generator is single-threaded and never sleeps).
NOISY_WALL_OVER_CPU = 1.10
MAX_NOISY_RERUNS = 2
#: The per-layer table is trusted only while tracing costs less than this.
MAX_TRACE_OVERHEAD = 1.35
#: Self times plus the driver's must add up to the traced ``work_s``.
SELF_TIME_TOLERANCE = 0.01
#: Fault-free workloads: a transaction that does not commit is a failure.
#: ``shard_chaos`` injects faults, so there only an atomicity violation is.
FAULT_INJECTING = frozenset({"shard_chaos"})
CHILD_TIMEOUT_S = 120
#: What must be bit-equal between two children of one (workload, sub-seed).
DETERMINISTIC_FIELDS = ("counts", "latencies_ms", "statuses", "violations")


class BenchmarkError(Exception):
    """The benchmark itself could not run (not a measured regression)."""


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def segments_for(seconds: float) -> int:
    return max(1, round(seconds / SEGMENT_NOMINAL_S))


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sorted sample."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


# ---------------------------------------------------------------------------
# running children
# ---------------------------------------------------------------------------

def spawn_child(
    workload: str, sub_seed: int, traced: bool, smoke: bool, hashseed: str = "0"
) -> Dict[str, Any]:
    """Run one segment in a fresh interpreter and wait for it to end."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    # A clean checkout has no __pycache__ and must not grow one, so there
    # every child compiles the program from source: part of setup_s.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [
        sys.executable, "-m", "benchmarks.e2e.child",
        "--workload", workload, "--seed", str(sub_seed),
        "--trace", "1" if traced else "0",
    ]
    if smoke:
        command.append("--smoke")
    # The program puts its WAL scratch directories under $TMPDIR; the
    # benchmark may only write inside its checkout.
    with tempfile.TemporaryDirectory(prefix=".bench_e2e_tmp_", dir=ROOT) as scratch:
        env["TMPDIR"] = scratch
        command += ["--spawned-at", repr(time.time())]
        try:
            done = subprocess.run(
                command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"child for {workload} seed {sub_seed} timed out")
    if done.returncode != 0:
        raise BenchmarkError(f"child for {workload} exited with {done.returncode}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record["noisy"] = record["work_s"] > NOISY_WALL_OVER_CPU * record["cpu_s"]
    return record


class Run:
    """The children of one run: per segment, the record metrics are
    taken from, plus every noisy one that was rerun."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.used: List[Dict[str, Any]] = []
        self.discarded: List[Dict[str, Any]] = []

    @property
    def records(self) -> List[Dict[str, Any]]:
        return self.used + self.discarded


def run_segment(run: Run, workload: str, seed: int, segment: int, smoke: bool) -> None:
    """Add one segment to *run*.  A noisy segment is rerun, at most
    :data:`MAX_NOISY_RERUNS` times per run; after that noisy segments
    are used like any other."""
    while True:
        record = spawn_child(workload, seed * 64 + segment, run.traced, smoke)
        if record["noisy"] and len(run.discarded) < MAX_NOISY_RERUNS:
            run.discarded.append(record)
            continue
        run.used.append(record)
        return


def run_segments(
    workload: str, seed: int, segments: int, traced: bool, smoke: bool
) -> Run:
    run = Run(traced)
    for segment in range(segments):
        run_segment(run, workload, seed, segment, smoke)
    return run


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pooled_counts(run: Run) -> Dict[str, Any]:
    """Deterministic metrics of one run: the segments' counts summed,
    their latency samples merged."""
    c: Dict[str, int] = {}
    for record in run.used:
        for name, value in record["counts"].items():
            c[name] = c.get(name, 0) + value
    latencies = sorted(v for record in run.used for v in record["latencies_ms"])
    committed = len(latencies)
    io_bytes = c["wal_bytes"] + c["checkpoint_bytes"] + c["ship_bytes"]
    return {
        "submitted": c["submitted"],
        "committed": committed,
        "vlat_p50_ms": percentile(latencies, 50),
        "vlat_p95_ms": percentile(latencies, 95),
        "commit_share": _ratio(committed, c["submitted"]),
        "failed_share": _ratio(c["submitted"] - committed, c["submitted"]),
        "io_bytes_per_commit": _ratio(io_bytes, committed),
        "sim.kernel.events_per_commit": _ratio(c["eventq_fired"], committed),
        "p2p.network.msgs_per_commit": _ratio(c["messages_sent"], committed),
        "p2p.replication.ship_frames_per_commit": _ratio(c["ship_frames"], committed),
        "p2p.replication.ship_bytes_per_commit": _ratio(c["ship_bytes"], committed),
        "p2p.replication.applied_entries": c["replica_applied_entries"],
        "p2p.replication.failovers": c["failovers"],
        "p2p.sharding.directory_lookups": c["directory_lookups"],
        "p2p.sharding.migrations": c["migrations"],
        "p2p.sharding.deferred_txns": c["migration_deferred_txns"],
        "txn.durable_wal.appends_per_commit": _ratio(c["wal_appends"], committed),
        "txn.durable_wal.flushes_per_commit": _ratio(c["wal_batch_flushes"], committed),
        "txn.durable_wal.bytes_per_commit": _ratio(c["wal_bytes"], committed),
        "txn.durable_wal.replay_entries": c["recovery_replay_entries"],
        "txn.checkpoint.count": c["checkpoints"],
        "txn.checkpoint.bytes": c["checkpoint_bytes"],
        "txn.wal.codec.hit_rate": _ratio(
            c["entry_codec_hits"], c["entry_codec_hits"] + c["entry_codec_misses"]),
        "txn.occ.retries_per_commit": _ratio(c["sched_retries"], committed),
        "xmlstore.index.hit_rate": _ratio(
            c["query_index_hits"], c["query_index_hits"] + c["query_tree_walks"]),
        "xmlstore.index.rank_rebuilds_per_commit": _ratio(c["index_rank_rebuilds"], committed),
        "xmlstore.serializer.tree_builds_per_commit": _ratio(
            c["serialize_tree_builds"], committed),
        "xmlstore.serializer.cache_hit_rate": _ratio(
            c["serialize_cache_hits"],
            c["serialize_cache_hits"] + c["serialize_cache_misses"]),
    }


def pooled_timings(run: Run, committed: int) -> Dict[str, float]:
    """Wall-clock metrics of one untraced run."""
    work_s = sum(r["work_s"] for r in run.used)
    return {
        "commit_tps": committed / work_s,
        "work_s": work_s,
        "setup_s": statistics.median(r["setup_s"] for r in run.used),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in run.used),
    }


def pooled_trace(run: Run, errors: List[str]) -> Dict[str, float]:
    """Per-layer metrics of one traced run: self times and calls summed
    over the segments, step percentiles as the median segment's."""
    out: Dict[str, float] = {}
    for record in run.used:
        trace = record["trace"]
        off = abs(trace["attributed_s"] - record["work_s"]) / record["work_s"]
        if off > SELF_TIME_TOLERANCE:
            errors.append(
                f"{record['workload']}: self times are {off:.2%} off the traced work_s")
    for layer in run.used[0]["trace"]["layers"]:
        for field in ("self_s", "calls"):
            out[f"{layer}.{field}"] = sum(
                r["trace"]["layers"][layer][field] for r in run.used)
    out["driver.self_s"] = sum(r["trace"]["driver_self_s"] for r in run.used)
    for field in ("step_ms_p50", "step_ms_p99"):
        out[f"sim.kernel.{field}"] = statistics.median(
            r["trace"][field] for r in run.used)
    return out


def _spread(values: Sequence[float]) -> Dict[str, Any]:
    return {
        "median": statistics.median(values), "min": min(values),
        "max": max(values), "n": len(values), "values": list(values),
    }


def evaluate(
    workload: str, runs: Sequence[Run], extra: Sequence[Dict[str, Any]] = ()
) -> Dict[str, Any]:
    """Reduce the runs of one (workload, seed) — untraced repeats and
    traced ones, plus *extra* same-seed children that are only compared —
    to named metrics and a list of errors; any error makes the result
    incorrect."""
    errors: List[str] = []
    children = [record for run in runs for record in run.records] + list(extra)
    first_of: Dict[int, Dict[str, Any]] = {}
    for record in children:
        reference = first_of.setdefault(record["seed"], record)
        for field in DETERMINISTIC_FIELDS:
            if record[field] != reference[field]:
                errors.append(
                    f"{workload}: {field} of sub-seed {record['seed']} differs between "
                    f"two children (traced={reference['traced']} vs {record['traced']})")
    violations = sorted({v for record in children for v in record["violations"]})
    if violations:
        errors.append(f"{workload}: oracle_violations {violations}")

    untraced = [run for run in runs if not run.traced]
    traced = [run for run in runs if run.traced]
    # Traced runs may cover fewer segments; counts come from a full run.
    counts = pooled_counts((untraced or traced)[0])
    metrics: Dict[str, Any] = {name: _spread([v]) for name, v in counts.items()}
    violation_count = sum(len(r["violations"]) for r in first_of.values())
    metrics["oracle_violations"] = _spread([violation_count])
    metrics["noisy_segments"] = _spread([sum(r["noisy"] for r in children)])
    failed = violation_count
    if workload not in FAULT_INJECTING:
        failed += counts["submitted"] - counts["committed"]

    timings = [pooled_timings(run, counts["committed"]) for run in untraced]
    for name in timings[0] if timings else ():
        metrics[name] = _spread([t[name] for t in timings])
    traces = [pooled_trace(run, errors) for run in traced]
    for name in traces[0] if traces else ():
        metrics[name] = _spread([t[name] for t in traces])
    if traces and timings:
        # Over the segments both kinds of run covered.
        ratios = []
        for run in traced:
            seeds = {r["seed"] for r in run.used}
            base = [
                sum(r["work_s"] for r in u.used if r["seed"] in seeds) for u in untraced
            ]
            ratios.append(sum(r["work_s"] for r in run.used) / statistics.median(base))
        metrics["trace.overhead_ratio"] = _spread(ratios)
    return {
        "workload": workload,
        "attempted": counts["submitted"],
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "boundary_calls": _sum_boundary_calls(traced[0]) if traced else {},
    }


def _sum_boundary_calls(run: Run) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for record in run.used:
        for name, calls in record["trace"]["boundary_calls"].items():
            out[name] = out.get(name, 0) + calls
    return out


def measure_suite(
    workload: str, seed: int, repeats: int, segments: int, smoke: bool,
    hashseed_check: bool,
) -> Dict[str, Any]:
    """Suite mode: *repeats* untraced runs and one traced run of the same
    seed; optionally segment 0 once more under another ``PYTHONHASHSEED``."""
    runs = [run_segments(workload, seed, segments, False, smoke) for _ in range(repeats)]
    runs.append(run_segments(workload, seed, segments, True, smoke))
    extra = [spawn_child(workload, seed * 64, False, smoke, hashseed="1")] if hashseed_check else []
    return evaluate(workload, runs, extra)


def measure_contract(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Driver mode: one run of ``segments_for(seconds)`` segments.  With
    tracing the budget is split: half as many segments, each run both
    untraced (the base of ``trace.overhead_ratio`` and of the
    traced-equals-untraced check) and traced."""
    segments = segments_for(seconds)
    if not trace:
        return evaluate(workload, [run_segments(workload, seed, segments, False, False)])
    untraced, traced = Run(False), Run(True)
    for segment in range(max(1, segments // 2)):
        # Alternating keeps slow drifts of the machine out of the ratio.
        run_segment(untraced, workload, seed, segment, False)
        run_segment(traced, workload, seed, segment, False)
    return evaluate(workload, [untraced, traced])


def contract_line(spec: Dict[str, Any], result: Dict[str, Any], trace: bool) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        if entry["name"] not in result["metrics"]:
            raise BenchmarkError(f"BENCHMARK.json names unknown metric {entry['name']}")
        metrics[entry["name"]] = {
            "value": result["metrics"][entry["name"]]["median"], "unit": entry["unit"],
        }
    return json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })
