"""Shared helpers for the benchmark suite.

Each bench regenerates one experiment from DESIGN.md's per-experiment
index, prints its table, and archives it under ``benchmarks/results/``
so EXPERIMENTS.md can quote the exact rows.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.obs.export import write_json_artifact
from repro.sim.harness import ExperimentTable

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def publish(table: ExperimentTable, filename: str) -> None:
    """Print the table and archive it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = table.render()
    print()
    print(text)
    with open(os.path.join(RESULTS_DIR, filename), "w") as handle:
        handle.write(text + "\n")


def publish_json(table: ExperimentTable, filename: str, **extra: object) -> str:
    """Archive the table (plus any extra payloads) as a JSON artifact.

    The artifact is strict JSON — sorted keys, non-finite floats
    exported as null — so downstream tooling can ``json.loads`` it.
    Returns the written path.
    """
    payload = dict(table.to_dict())
    payload.update(extra)
    return write_json_artifact(os.path.join(RESULTS_DIR, filename), payload)


#: Schema tag of perf-benchmark artifacts (BENCH_P1.json and friends);
#: bump when the record shape below changes incompatibly.
PERF_SCHEMA = "repro-bench-perf/1"


def perf_record(
    bench: str,
    seed: int,
    wall_time: float,
    speedup: float,
    index_hit_rate: float = None,
    **extra: object,
) -> dict:
    """One machine-readable perf measurement (docs/PERF.md documents it).

    Required fields: ``bench`` (measurement name), ``seed``,
    ``wall_time`` (seconds, this machine, informational only),
    ``speedup`` (dimensionless ratio — the gated quantity).
    ``index_hit_rate`` is the fraction of descendant steps answered from
    the structural index, when the measurement exercises queries.
    """
    record = {
        "bench": bench,
        "seed": seed,
        "wall_time": round(wall_time, 6),
        "speedup": round(speedup, 4),
    }
    if index_hit_rate is not None:
        record["index_hit_rate"] = round(index_hit_rate, 4)
    record.update(extra)
    return record


def publish_perf(filename: str, records: list, **extra: object) -> str:
    """Archive perf records under ``benchmarks/results/`` as strict JSON."""
    payload = {"schema": PERF_SCHEMA, "records": list(records)}
    payload.update(extra)
    return write_json_artifact(os.path.join(RESULTS_DIR, filename), payload)


def run_perf_bench(name, doc, benches, gates, configure=None) -> int:
    """The ``main()`` every perf-gate script shares.

    Parses ``--smoke``/``--seed`` (plus whatever *configure* adds to the
    parser), runs each ``bench(args) -> record``, archives the records as
    ``BENCH_<name>[_smoke].json``, then asks ``gates(args, *records)``
    for the reasons the run fails its gate.  Returns the exit status.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run (used by the CI perf gate)")
    parser.add_argument("--seed", type=int, default=7)
    if configure is not None:
        configure(parser)
    args = parser.parse_args()

    records = [bench(args) for bench in benches]
    suffix = "_smoke" if args.smoke else ""
    path = publish_perf(f"BENCH_{name}{suffix}.json", records, smoke=args.smoke)
    print(f"json artifact written: {path}")

    failed = list(gates(args, *records))
    for reason in failed:
        print(f"FAILED: {reason}", file=sys.stderr)
    return 1 if failed else 0
