"""C1 — atomicity under seeded chaos: the 50-run oracle sweep.

Sweeps the chaos harness over 25 seeds x 2 concurrency levels at fault
rate 0.2 (every run has planned faults) and asserts the atomicity
oracle finds **zero** violations — the paper's relaxed-atomicity
contract holds across 50 distinct fault schedules: service faults at
random depths, timed and protocol-point disconnections, and dropped or
delayed §3.3 messages, overlaid on concurrent workloads.

Run:  python benchmarks/bench_chaos_sweep.py [--smoke] [--fault-rate R]

Everything is seeded: the same parameters produce a byte-identical
table and JSON artifact on every run, independent of PYTHONHASHSEED.
"""

import argparse
import sys

from repro.chaos import ChaosConfig, chaos_sweep
from repro.sim.metrics import MetricsCollector

from _util import publish, publish_json


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fast sweep (used by CI)")
    parser.add_argument("--fault-rate", type=float, default=0.2)
    args = parser.parse_args()

    seeds = range(3) if args.smoke else range(25)
    metrics = MetricsCollector()
    table, failures = chaos_sweep(
        ChaosConfig(fault_rate=args.fault_rate),
        seeds=seeds,
        concurrencies=(2, 4),
        metrics=metrics,
    )

    suffix = "_smoke" if args.smoke else ""
    publish(table, f"c1_chaos_sweep{suffix}.txt")
    path = publish_json(
        table,
        f"c1_chaos_sweep{suffix}.json",
        fault_rate=args.fault_rate,
        chaos_runs=metrics.get("chaos_runs"),
        chaos_violations=metrics.get("chaos_violations"),
    )
    print(f"\njson artifact written: {path}")
    print(
        f"chaos_runs = {metrics.get('chaos_runs')}  "
        f"chaos_violations = {metrics.get('chaos_violations')}"
    )

    # The claim under test: no schedule in the sweep breaks atomicity.
    if failures:
        print(f"FAILED: {len(failures)} runs reported violations", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
