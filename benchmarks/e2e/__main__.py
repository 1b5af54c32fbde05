"""BENCH_E2E command line.

Suite (people)::

    PYTHONPATH=src python -m benchmarks.e2e [--seed N] [--repeats K]
        [--workload NAME] [--smoke] [--append PATH]

runs every workload (K untraced runs + one traced run each, a run
being six segments with their own sub-seeds),
prints every metric by name with its unit and exits non-zero on an
oracle violation, a determinism mismatch or a self-time sum off by
more than 1 %.

Driver (``BENCHMARK.json``)::

    python3 -m benchmarks.e2e --workload NAME --seed N --seconds S --trace 0|1

measures one workload for S seconds of work and prints one JSON object
as the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.e2e import harness

#: Printed beside the end-to-end metrics in suite mode; not bounded by
#: ``BENCHMARK.json`` because they are 0 on some workloads.
SUITE_EXTRAS = (
    ("work_s", "s"), ("failed_share", "fraction"), ("io_bytes_per_commit", "bytes"),
    ("oracle_violations", "count"), ("noisy_segments", "count"),
)
#: The workload repeated under a second ``PYTHONHASHSEED`` in suite mode:
#: the rung that runs the most code.
HASHSEED_CHECK_WORKLOAD = "shard_chaos"


def _print_metric(name: str, unit: str, spread: Dict[str, Any]) -> None:
    if spread["n"] == 1:
        print(f"  {name:<46} {unit:<9} {spread['median']:.6g}")
        return
    print(
        f"  {name:<46} {unit:<9} median {spread['median']:<14.6g} "
        f"min {spread['min']:<14.6g} max {spread['max']:<14.6g} n {spread['n']}"
    )


def print_result(spec: Dict[str, Any], result: Dict[str, Any]) -> None:
    metrics = result["metrics"]
    print(
        f"== {result['workload']}: {result['attempted']} submitted, "
        f"{metrics['committed']['median']} committed (= vlat sample count) =="
    )
    for entry in spec["end_to_end"]:
        _print_metric(entry["name"], entry["unit"], metrics[entry["name"]])
    for name, unit in SUITE_EXTRAS:
        _print_metric(name, unit, metrics[name])
    if "trace.overhead_ratio" not in metrics:
        return
    print("  -- per layer (traced repeat) --")
    for entry in spec["per_layer"]:
        _print_metric(entry["name"], entry["unit"], metrics[entry["name"]])
    traced_work = sum(
        metrics[e["name"]]["median"] for e in spec["per_layer"]
        if e["name"].endswith(".self_s")
    )
    ranked = sorted(
        (e["name"][: -len(".self_s")] for e in spec["per_layer"]
         if e["name"].endswith(".self_s") and e["name"] != "driver.self_s"),
        key=lambda layer: -metrics[f"{layer}.self_s"]["median"],
    )
    top = ", ".join(
        f"{layer} {metrics[f'{layer}.self_s']['median'] / traced_work:.1%}"
        for layer in ranked[:3]
    )
    print(f"  top three layers by self time: {top}")
    overhead = metrics["trace.overhead_ratio"]["median"]
    if overhead > harness.MAX_TRACE_OVERHEAD:
        print(f"  WARNING: trace.overhead_ratio {overhead:.2f} > "
              f"{harness.MAX_TRACE_OVERHEAD}; the per-layer table is not trustworthy")


def print_ladder(results: List[Dict[str, Any]]) -> None:
    """``commit_tps`` per rung and the change each added feature costs."""
    rungs = [r for r in results if r["workload"] != "catalogue_occ"]
    if len(rungs) < 2:
        return
    print("== ladder: commit_tps and the cost of each added feature ==")
    previous: Optional[float] = None
    for result in rungs:
        tps = result["metrics"]["commit_tps"]["median"]
        delta = "" if previous is None else f"  ({tps / previous - 1.0:+.1%} vs rung above)"
        print(f"  {result['workload']:<12} {tps:10.2f} txn/s{delta}")
        previous = tps


def baseline_record(
    spec: Dict[str, Any], results: List[Dict[str, Any]], seed: int, repeats: int, smoke: bool
) -> Dict[str, Any]:
    workloads = {}
    for result in results:
        metrics = result["metrics"]
        e2e_names = [e["name"] for e in spec["end_to_end"]] + [n for n, _ in SUITE_EXTRAS]
        workloads[result["workload"]] = {
            "end_to_end": {name: metrics[name] for name in e2e_names},
            "per_layer": {
                e["name"]: metrics[e["name"]]["median"]
                for e in spec["per_layer"] if e["name"] in metrics
            },
        }
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "repeats": repeats,
        "smoke": smoke,
        "workloads": workloads,
    }


def git_commit() -> str:
    """Short commit id of the checkout, ``+dirty`` with local changes;
    ``unknown`` outside a git repository."""
    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", *args], cwd=harness.ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    head = git("rev-parse", "--short", "HEAD")
    if not head:
        return "unknown"
    return head + ("+dirty" if git("status", "--porcelain") else "")


def append_record(path: str, record: Dict[str, Any]) -> None:
    history: List[Dict[str, Any]] = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            history = json.load(handle)
    history.append(record)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(history, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run_suite(spec: Dict[str, Any], args: argparse.Namespace) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        names = [args.workload]
    segments = (
        harness.SMOKE_SEGMENTS if args.smoke else harness.segments_for(spec["run_seconds"])
    )
    results = []
    for name in names:
        result = harness.measure_suite(
            name, args.seed, args.repeats, segments, args.smoke,
            hashseed_check=(name == HASHSEED_CHECK_WORKLOAD),
        )
        print_result(spec, result)
        results.append(result)
    print_ladder(results)
    errors = [error for result in results for error in result["errors"]]
    for error in errors:
        print(f"ERROR: {error}")
    if args.append:
        append_record(
            args.append, baseline_record(spec, results, args.seed, args.repeats, args.smoke)
        )
    return 1 if errors else 0


def run_contract(spec: Dict[str, Any], args: argparse.Namespace) -> int:
    if not args.workload:
        raise harness.BenchmarkError("--seconds needs --workload")
    result = harness.measure_contract(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for error in result["errors"]:
        print(f"ERROR: {error}")
    print(harness.contract_line(spec, result, bool(args.trace)))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = harness.load_spec()
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3, help="untraced repeats (suite)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    parser.add_argument("--append", metavar="PATH",
                        help="append this run as one commit-keyed record (suite)")
    parser.add_argument("--seconds", type=float,
                        help="driver mode: seconds of work to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 reports the per-layer metrics")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(harness.ROOT, "src", "repro")):
        print("no src/repro beside the benchmark: nothing to measure", file=sys.stderr)
        return 2
    try:
        return run_contract(spec, args) if args.seconds is not None else run_suite(spec, args)
    except harness.BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
