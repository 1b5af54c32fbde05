"""P3 — what is left of the serialization fast path: the memoized entry
codec and the structural clone (docs/PERF.md, "Serialization fast path").

* **Part A — entry-codec memo on the replicated checkpointed chaos
  workload.**  Seeded chaos runs with durability, checkpoints, group
  commit and ``replicas=3``: every logged entry goes to the WAL and into
  checkpoints, and is encoded once (:func:`repro.txn.wal.entry_to_xml`
  memoizes the frame on the entry); ships to the three replicas carry
  the entry itself and encode nothing.
  Reported: ``entry_codec_hits/misses``, full-document renders
  (``serialize_tree_builds``: documents only, since a frame is written
  straight from its entry), digest-first replica matches.  Gates:
  zero oracle violations, and the memo serves at least half of the
  frames asked for (a count, exact on any machine).

* **Part B — structural clone vs. round-trip copy.**  Deep-copies a
  deep/wide P1-style document via :meth:`Document.clone_tree` and via
  the serialize→``parse_document``→``rebind_ids`` route, and requires
  the two copies to serialize **byte-identically** (ids included).
  Wall times are informational.

Run:  python benchmarks/bench_p3_serialization.py [--smoke] [--seed N]
Out:  benchmarks/results/BENCH_P3[_smoke].json   (repro-bench-perf/1)
"""

from __future__ import annotations

import sys
import time

from _util import perf_record, run_perf_bench

from repro.chaos import ChaosConfig, run_chaos
from repro.obs.prof import PROF
from repro.sim.rng import SeededRng
from repro.xmlstore.names import QName
from repro.xmlstore.nodes import Document, Element
from repro.xmlstore.parser import parse_document
from repro.xmlstore.serializer import rebind_ids, serialize

#: What Part A reports.  All are summary-local (see
#: ``repro.obs.prof.SUMMARY_LOCAL_COUNTERS``), so they are read straight
#: from :data:`PROF` deltas, never from the run summary.
CODEC_COUNTERS = (
    "entry_codec_hits",
    "entry_codec_misses",
    "serialize_tree_builds",
    "replica_digest_matches",
)


def bench_entry_codec_memo(args) -> dict:
    """Part A: each entry is encoded once however often it is written."""
    seeds = range(1, 2) if args.smoke else range(1, 4)
    txns = 16 if args.smoke else 20
    ops = 4 if args.smoke else 5
    rows = []
    totals = dict.fromkeys(CODEC_COUNTERS, 0)
    violations_total = 0
    wall_total = 0.0
    for seed in seeds:
        config = ChaosConfig(
            seed=seed, txns=txns, ops_per_txn=ops,
            fault_rate=0.2, crash_rate=0.3,
            durability=True, checkpoint_every=4, wal_batch=4,
            replicas=3, ship_batch=2,
        )
        before = PROF.snapshot()
        start = time.perf_counter()
        result = run_chaos(config)
        wall_total += time.perf_counter() - start
        delta = PROF.delta_since(before)
        counters = {name: delta.get(name, 0) for name in CODEC_COUNTERS}
        for name, value in counters.items():
            totals[name] += value
        violations_total += len(result.violations)
        rows.append({"seed": seed, "violations": len(result.violations), "counters": counters})
        print(
            f"P3/A seed {seed}: {counters['entry_codec_misses']} entries encoded, "
            f"{counters['entry_codec_hits']} frames reused, "
            f"{counters['serialize_tree_builds']} document renders, "
            f"{counters['replica_digest_matches']} replicas matched by digest"
        )
    asked = totals["entry_codec_hits"] + totals["entry_codec_misses"]
    reuse = asked / totals["entry_codec_misses"] if totals["entry_codec_misses"] else float("inf")
    print(
        f"P3/A total: {asked} frames asked for, {totals['entry_codec_misses']} "
        f"encoded ({reuse:.2f}x reuse), wall {wall_total:.3f}s"
    )
    return perf_record(
        "entry_codec_memo",
        args.seed,
        wall_total,
        round(reuse, 4),
        seeds=list(seeds),
        txns_per_seed=txns,
        ops_per_txn=ops,
        replicas=3,
        violations_total=violations_total,
        rows=rows,
        **totals,
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
        fast_copy = doc.clone_tree()
    fast_time = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(reps):
        # roundtrip-ok: this IS the measured baseline — the copy route
        # Part B compares the structural clone against.
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


def gates(args, memo_rec, clone_rec):
    """Reasons this run fails its gate: counts and byte-identity only."""
    if memo_rec["violations_total"] != 0:
        yield (
            f"chaos runs reported {memo_rec['violations_total']} "
            f"oracle violations (expected 0)"
        )
    if memo_rec["speedup"] < 2.0:
        yield (
            f"entry-codec memo reuse {memo_rec['speedup']}x < 2x "
            f"({memo_rec['entry_codec_hits']} hits, "
            f"{memo_rec['entry_codec_misses']} encodes)"
        )
    if not clone_rec["byte_identical"]:
        yield "structural clone output diverged from the round trip"


def main() -> int:
    return run_perf_bench(
        "P3", __doc__, [bench_entry_codec_memo, bench_structural_clone], gates
    )


if __name__ == "__main__":
    sys.exit(main())
