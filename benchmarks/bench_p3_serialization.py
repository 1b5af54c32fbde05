"""P3 — the serialization fast path: cached canonical XML, structural
clone and the memoized entry codec.

Two measurements (docs/PERF.md, "Serialization fast path"):

* **Part A — serialization reduction on the replicated checkpointed
  chaos workload.**  Seeded chaos runs with durability, checkpoints,
  group commit and ``replicas=3`` are executed twice each: fast path on
  (caches + structural clone + memoized entry codec) and fast path off
  (:func:`repro.xmlstore.fastpath.fast_path_disabled` — every encode
  recomputed, every clone a serialize→parse round trip).  Gates:

  - each seed's run summary is **byte-identical** across the two modes
    (the fast path is observably invisible),
  - zero oracle violations in both modes,
  - the fast path performs **>= 3x fewer** full-document tree renders
    (the ``serialize_tree_builds`` profiler counter) than the cold path,
  - wall time is not worse (only asked when the machine has >= 2 cores;
    loaded single-core CI boxes make wall gates meaningless).

* **Part B — structural clone vs. round-trip copy.**  Deep-copies a
  deep/wide P1-style document via :meth:`Document.clone_tree` and via
  the historical serialize→``parse_document``→``rebind_ids`` route, and
  requires the two copies to serialize **byte-identically** (ids
  included).  Wall times are informational.

Run:  python benchmarks/bench_p3_serialization.py [--smoke] [--seed N]
Out:  benchmarks/results/BENCH_P3[_smoke].json   (repro-bench-perf/1)
"""

from __future__ import annotations

import sys
import time

from _util import perf_record, run_perf_bench

from repro.chaos import ChaosConfig, run_chaos
from repro.chaos.shrink import summary_text
from repro.obs.prof import PROF
from repro.sim.parallel import available_cores
from repro.sim.rng import SeededRng
from repro.xmlstore.fastpath import fast_path_disabled
from repro.xmlstore.names import QName
from repro.xmlstore.nodes import Document, Element
from repro.xmlstore.parser import parse_document
from repro.xmlstore.serializer import rebind_ids, serialize

#: The fast-path effectiveness counters Part A reports (all of them are
#: summary-local — see ``repro.obs.prof.SUMMARY_LOCAL_COUNTERS`` — so
#: they are read straight from :data:`PROF` deltas, never from the run
#: summary, which must stay byte-identical across modes).
FASTPATH_COUNTERS = (
    "serialize_tree_builds",
    "serialize_cache_hits",
    "serialize_cache_misses",
    "serialize_digest_hits",
    "serialize_digest_misses",
    "clone_fast",
    "clone_fallback",
    "entry_codec_hits",
    "entry_codec_misses",
    "replica_digest_matches",
)


def _measured_run(config: ChaosConfig):
    """One chaos run returning (summary text, violations, counter deltas,
    wall seconds)."""
    before = PROF.snapshot()
    start = time.perf_counter()
    result = run_chaos(config)
    elapsed = time.perf_counter() - start
    delta = PROF.delta_since(before)
    counters = {name: delta.get(name, 0) for name in FASTPATH_COUNTERS}
    return summary_text(result), len(result.violations), counters, elapsed


def bench_serialization_reduction(args) -> dict:
    """Part A: >= 3x fewer tree renders, byte-identical summaries."""
    seeds = range(1, 2) if args.smoke else range(1, 4)
    txns = 16 if args.smoke else 20
    ops = 4 if args.smoke else 5
    rows = []
    builds_on_total = 0
    builds_off_total = 0
    wall_on_total = 0.0
    wall_off_total = 0.0
    violations_total = 0
    mismatched_summaries = 0
    for seed in seeds:
        config = ChaosConfig(
            seed=seed, txns=txns, ops_per_txn=ops,
            fault_rate=0.2, crash_rate=0.3,
            durability=True, checkpoint_every=4, wal_batch=4,
            replicas=3, ship_batch=2,
        )
        summary_on, viol_on, on, wall_on = _measured_run(config)
        with fast_path_disabled():
            summary_off, viol_off, off, wall_off = _measured_run(config)
        identical = summary_on == summary_off
        mismatched_summaries += 0 if identical else 1
        violations_total += viol_on + viol_off
        builds_on = on["serialize_tree_builds"]
        builds_off = off["serialize_tree_builds"]
        builds_on_total += builds_on
        builds_off_total += builds_off
        wall_on_total += wall_on
        wall_off_total += wall_off
        ratio = builds_off / builds_on if builds_on else float("inf")
        rows.append({
            "seed": seed,
            "summary_identical": identical,
            "violations_on": viol_on,
            "violations_off": viol_off,
            "builds_on": builds_on,
            "builds_off": builds_off,
            "build_ratio": round(ratio, 2),
            "counters_on": on,
        })
        print(
            f"P3/A seed {seed}: renders {builds_off} cold vs {builds_on} "
            f"cached ({ratio:.2f}x fewer), {on['entry_codec_hits']} entry "
            f"frames reused, {on['clone_fast']} fast clones "
            f"({on['clone_fallback']} fallbacks), summary identical={identical}"
        )
    build_ratio = (
        builds_off_total / builds_on_total if builds_on_total else float("inf")
    )
    wall_speedup = wall_off_total / wall_on_total if wall_on_total else float("inf")
    print(
        f"P3/A total: {builds_off_total} -> {builds_on_total} renders "
        f"({build_ratio:.2f}x reduction), wall {wall_off_total:.3f}s -> "
        f"{wall_on_total:.3f}s ({wall_speedup:.2f}x)"
    )
    return perf_record(
        "serialization_reduction",
        args.seed,
        wall_on_total,
        round(build_ratio, 4),
        seeds=list(seeds),
        txns_per_seed=txns,
        ops_per_txn=ops,
        replicas=3,
        builds_on=builds_on_total,
        builds_off=builds_off_total,
        wall_speedup=round(wall_speedup, 4),
        cold_wall_time=round(wall_off_total, 6),
        violations_total=violations_total,
        mismatched_summaries=mismatched_summaries,
        rows=rows,
    )


def build_clone_document(depth: int, fanout: int, budget: int, seed: int) -> Document:
    """A seeded deep/wide document (P1's generator shape)."""
    rng = SeededRng(seed)
    doc = Document("Bench")
    root = doc.create_root(QName("Bench"))
    frontier = [root]
    built = 1
    for _level in range(depth):
        next_frontier = []
        for parent in frontier:
            for _ in range(fanout):
                if built >= budget:
                    return doc
                child = Element(
                    doc, rng.choice(["a", "b", "c", "d"]),
                    {"rank": str(rng.randint(1, 5))},
                )
                parent.append(child)
                next_frontier.append(child)
                built += 1
        frontier = next_frontier
    return doc


def bench_structural_clone(args) -> dict:
    """Part B: clone_tree ≡ the serialize→parse round trip, faster."""
    budget = 2_000 if args.smoke else 20_000
    reps = 3 if args.smoke else 5
    doc = build_clone_document(depth=6, fanout=8, budget=budget, seed=args.seed)
    reference = serialize(doc, include_ids=True)

    start = time.perf_counter()
    for _ in range(reps):
        fast_copy = doc.clone_tree(preserve_ids=True)
    fast_time = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(reps):
        # roundtrip-ok: this IS the measured baseline — the historical
        # copy route Part B compares the structural clone against.
        slow_copy = parse_document(reference, name=doc.name)
        rebind_ids(slow_copy)
    slow_time = time.perf_counter() - start

    identical = (
        serialize(fast_copy, include_ids=True) == reference
        and serialize(slow_copy, include_ids=True) == reference
    )
    speedup = slow_time / fast_time if fast_time > 0 else float("inf")
    print(
        f"P3/B clone: {doc.size()} nodes x{reps} -> structural "
        f"{fast_time:.4f}s vs round trip {slow_time:.4f}s "
        f"({speedup:.1f}x), byte-identical={identical}"
    )
    return perf_record(
        "structural_clone_vs_roundtrip",
        args.seed,
        fast_time,
        speedup,
        nodes=doc.size(),
        reps=reps,
        byte_identical=identical,
        roundtrip_wall_time=round(slow_time, 6),
    )


def gates(args, reduction_rec, clone_rec):
    """Reasons this run fails its gate.  Deterministic counters first, wall time only with cores."""
    if reduction_rec["mismatched_summaries"] != 0:
        yield (
            f"{reduction_rec['mismatched_summaries']} seeds produced "
            f"different run summaries with the fast path on vs off"
        )
    if reduction_rec["violations_total"] != 0:
        yield (
            f"chaos runs reported {reduction_rec['violations_total']} "
            f"oracle violations (expected 0)"
        )
    if reduction_rec["speedup"] < 3.0:
        yield (
            f"serialization reduction {reduction_rec['speedup']}x < 3x "
            f"({reduction_rec['builds_off']} cold vs "
            f"{reduction_rec['builds_on']} cached renders)"
        )
    if not clone_rec["byte_identical"]:
        yield "structural clone output diverged from the round trip"
    # Wall time is only a fair ask when the machine has >= 2 cores; on a
    # loaded single-core box the cold/cached runs contend with the world.
    if available_cores() >= 2 and reduction_rec["wall_speedup"] <= 1.0:
        yield (
            f"fast path wall speedup {reduction_rec['wall_speedup']}x <= 1x "
            f"on {available_cores()} cores"
        )


def main() -> int:
    return run_perf_bench(
        "P3", __doc__, [bench_serialization_reduction, bench_structural_clone], gates
    )


if __name__ == "__main__":
    sys.exit(main())
