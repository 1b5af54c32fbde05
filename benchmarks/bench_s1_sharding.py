"""S1 — elastic sharding: placement scaling and migration disruption.

Three measurements (docs/SHARDING.md):

* Part A, ring scaling: a 256-key keyspace placed on rings of 2..16
  members.  Aggregate capacity scales with the peer count because the
  *per-peer* primary share stays within a bounded factor of the ideal
  ``K/N`` — the balance factor is gated, and one member joining moves
  at most a bounded fraction of the keys (minimal disruption), all of
  them to the new member.  Lookup wall-throughput is informational.
* Part B, live-migration disruption: one shard migrates while
  transactions keep committing.  The quiescence barrier defers exactly
  the transactions in flight at the barrier (gated ≤ that bound), and
  the WAL tail shipped to the target between copy and cutover is gated
  to exactly the entries committed in that window — never a re-copy.
* Part C, sharded chaos sweep: seeded chaos runs with the ring,
  spares joining mid-run, migration crash faults, and replicas on.
  Zero oracle violations (including the shard predicates) and
  byte-identical reruns are gated; migration counters are recorded.

Gates are deterministic (logical counters, not wall time); wall-clock
times are informational only.

Run:  python benchmarks/bench_s1_sharding.py [--smoke]
Out:  benchmarks/results/BENCH_S1[_smoke].json   (repro-bench-perf/1)
"""

from __future__ import annotations

import math
import sys
import time

from _util import perf_record, run_perf_bench

from repro.axml.document import AXMLDocument
from repro.chaos import ChaosConfig, run_chaos
from repro.chaos.shrink import summary_text
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.p2p.sharding import ShardCoordinator, ShardRing
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import UpdateService

D1 = "<D1><items/></D1>"

ADD_ITEM = (
    '<action type="insert"><data><item>$v</item></data>'
    "<location>Select d from d in D1//items;</location></action>"
)

#: Max allowed ratio of the largest per-peer primary share to the ideal
#: K/N share (VNODES=16 placement variance; measured ≤ ~2.1 across the
#: gated ring sizes).
BALANCE_BOUND = 3.0

#: Join disruption bound as a multiple of ceil(K / (N+1)).
DISRUPTION_SLACK = 2.0


def bench_ring_scaling(args) -> dict:
    """Part A: bounded per-peer load and join disruption as N grows."""
    key_count = 64 if args.smoke else 256
    sizes = (2, 4) if args.smoke else (2, 4, 8, 16)
    keys = [f"K{i:04d}" for i in range(key_count)]
    rows = []
    start = time.perf_counter()
    for size in sizes:
        members = [f"AP{j}" for j in range(1, size + 1)]
        ring = ShardRing(seed=args.seed, members=members)
        shares = {member: 0 for member in members}
        lookup_start = time.perf_counter()
        for key in keys:
            shares[ring.primary(key)] += 1
        lookup_elapsed = time.perf_counter() - lookup_start
        ideal = key_count / size
        balance = max(shares.values()) / ideal
        before = {key: ring.primary(key) for key in keys}
        ring.add_member("NEW")
        moved = [key for key in keys if ring.primary(key) != before[key]]
        rows.append({
            "members": size,
            "max_share": max(shares.values()),
            "ideal_share": round(ideal, 1),
            "balance_factor": round(balance, 3),
            "moved_on_join": len(moved),
            "join_bound": math.ceil(
                DISRUPTION_SLACK * math.ceil(key_count / (size + 1))
            ),
            "moved_to_new_only": all(
                ring.primary(key) == "NEW" for key in moved
            ),
            "lookups_per_sec": round(key_count / max(lookup_elapsed, 1e-9)),
        })
        print(
            f"S1/A N={size}: max share {max(shares.values())}/{ideal:.0f} "
            f"(balance {balance:.2f}x), join moved {len(moved)} keys "
            f"(bound {rows[-1]['join_bound']})"
        )
    elapsed = time.perf_counter() - start
    return perf_record(
        "ring_scaling",
        args.seed,
        elapsed,
        1.0,  # gate quantity is the balance factor, not a ratio
        key_count=key_count,
        balance_bound=BALANCE_BOUND,
        rows=rows,
    )


def bench_migration_disruption(args) -> dict:
    """Part B: the barrier defers in-flight work; the tail ships exactly."""
    network = SimNetwork()
    replication = network.replication
    peers = {
        pid: AXMLPeer(pid, network) for pid in ("C1", "AP1", "AP2", "AP3")
    }
    ring = ShardRing(seed=42, members=["AP1", "AP2", "AP3"], replicas=1)
    # A long copy→cutover gap so committed entries pile into the tail.
    coordinator = ShardCoordinator(
        network, ring, cutover_delay=1.0, max_defers=100
    )
    primary = ring.primary("D1")  # AP3 with seed 42 (pinned by the tests)
    peers[primary].host_document(AXMLDocument.from_xml(D1, name="D1"))
    peers[primary].host_service(UpdateService(
        ServiceDescriptor("addItem", params=("v",), target_document="D1"),
        ADD_ITEM,
    ))
    replication.register_primary("D1", primary)
    replication.register_service("addItem", primary)
    coordinator.register_shard("D1", "addItem")
    for replica in ring.lookup("D1")[1:]:
        replication.replicate_document("D1", replica)
        replication.replicate_service("addItem", replica)
    peers["N15"] = AXMLPeer("N15", network)  # becomes D1's primary on join

    # One transaction in flight at the barrier...
    open_txn = peers["C1"].begin_transaction()
    peers["C1"].invoke(open_txn.txn_id, primary, "addItem", {"v": "barrier"})
    in_flight_at_barrier = 1
    coordinator.add_peer("N15")
    network.events.schedule(
        0.3, lambda: peers["C1"].commit(open_txn.txn_id)
    )

    # ...and E transactions committing between copy and cutover: their
    # entries are the WAL tail the target must receive.
    tail_txns = 3 if args.smoke else 8

    def commit_one(value):
        txn = peers["C1"].begin_transaction()
        peers["C1"].invoke(txn.txn_id, primary, "addItem", {"v": value})
        peers["C1"].commit(txn.txn_id)

    for i in range(tail_txns):
        network.events.schedule(
            0.45 + 0.05 * i, lambda v=f"tail{i}": commit_one(v)
        )

    start = time.perf_counter()
    network.events.run_all()
    elapsed = time.perf_counter() - start

    deferred = network.metrics.get("migration_deferred_txns")
    shipped = network.metrics.get("migration_entries_shipped")
    migrations = network.metrics.get("migrations")
    target_xml = peers["N15"].get_axml_document("D1").to_xml()
    tail_applied = sum(1 for i in range(tail_txns) if f"tail{i}" in target_xml)
    print(
        f"S1/B migration: {deferred} deferred txns "
        f"(in-flight bound {in_flight_at_barrier}), {shipped} tail entries "
        f"shipped for {tail_txns} tail commits, {migrations} migrations, "
        f"{tail_applied}/{tail_txns} tail effects on the target "
        f"({elapsed:.4f}s)"
    )
    return perf_record(
        "migration_disruption",
        args.seed,
        elapsed,
        1.0,
        in_flight_at_barrier=in_flight_at_barrier,
        migration_deferred_txns=deferred,
        tail_txns=tail_txns,
        migration_entries_shipped=shipped,
        tail_applied_on_target=tail_applied,
        migrations=migrations,
        new_primary=replication.directory.primary("D1"),
    )


def bench_sharded_sweep(args) -> dict:
    """Part C: zero-violation, deterministic sharded chaos sweep."""
    seeds = range(1, 4) if args.smoke else range(1, 11)
    txns = 6 if args.smoke else 10
    rows = []
    violations_total = 0
    nondeterministic = 0
    start = time.perf_counter()
    for seed in seeds:
        config = ChaosConfig(
            seed=seed, txns=txns, providers=3, fault_rate=0.2,
            crash_rate=0.3, replicas=1, sharding=True, shard_spares=1,
            durability=True,
        )
        result = run_chaos(config)
        rerun = run_chaos(config)
        identical = summary_text(result) == summary_text(rerun)
        nondeterministic += 0 if identical else 1
        violations_total += len(result.violations)
        counters = result.summary["metrics"]["counters"]
        rows.append({
            "seed": seed,
            "violations": len(result.violations),
            "deterministic": identical,
            "migrations": counters.get("migrations", 0),
            "migration_aborts": counters.get("migration_aborts", 0),
            "migration_deferred_txns": counters.get(
                "migration_deferred_txns", 0
            ),
            "migration_entries_shipped": counters.get(
                "migration_entries_shipped", 0
            ),
            "ring_moves": counters.get("ring_moves", 0),
            "chains_rewritten": counters.get("chains_rewritten", 0),
        })
        print(
            f"S1/C seed {seed}: {len(result.violations)} violations, "
            f"{rows[-1]['migrations']} migrations "
            f"({rows[-1]['migration_aborts']} aborted), "
            f"{rows[-1]['migration_deferred_txns']} deferred txns, "
            f"deterministic={identical}"
        )
    elapsed = time.perf_counter() - start
    return perf_record(
        "sharded_chaos_sweep",
        args.seed,
        elapsed,
        1.0,
        seeds=list(seeds),
        txns_per_seed=txns,
        concurrency=ChaosConfig.concurrency,
        violations_total=violations_total,
        nondeterministic_seeds=nondeterministic,
        rows=rows,
    )


def gates(args, scaling_rec, migration_rec, sweep_rec):
    """Reasons this run fails its gate.  Deterministic counters, not wall time."""
    for row in scaling_rec["rows"]:
        if row["balance_factor"] > BALANCE_BOUND:
            yield (
                f"N={row['members']}: balance factor "
                f"{row['balance_factor']} exceeds {BALANCE_BOUND}"
            )
        if row["moved_on_join"] > row["join_bound"]:
            yield (
                f"N={row['members']}: join moved {row['moved_on_join']} "
                f"keys, bound {row['join_bound']}"
            )
        if not row["moved_to_new_only"]:
            yield (
                f"N={row['members']}: a join moved keys to an old member"
            )
    if migration_rec["migrations"] != 1:
        yield (
            f"migration bench completed {migration_rec['migrations']} "
            f"migrations (expected exactly 1)"
        )
    if migration_rec["migration_deferred_txns"] > migration_rec[
        "in_flight_at_barrier"
    ]:
        yield (
            f"barrier deferred {migration_rec['migration_deferred_txns']} "
            f"txns for {migration_rec['in_flight_at_barrier']} in flight"
        )
    shipped = migration_rec["migration_entries_shipped"]
    tail = migration_rec["tail_txns"]
    if not (1 <= shipped <= tail):
        yield (
            f"migration shipped {shipped} tail entries for {tail} tail "
            f"commits (expected 1 <= shipped <= tail — never a re-copy)"
        )
    if migration_rec["tail_applied_on_target"] != tail:
        yield (
            f"only {migration_rec['tail_applied_on_target']}/{tail} tail "
            f"commits reached the migrated shard"
        )
    if sweep_rec["violations_total"] != 0:
        yield (
            f"sharded sweep reported {sweep_rec['violations_total']} "
            f"oracle violations (expected 0)"
        )
    if sweep_rec["nondeterministic_seeds"] != 0:
        yield (
            f"{sweep_rec['nondeterministic_seeds']} seeds were not "
            f"byte-identical on rerun"
        )
    if not any(row["migrations"] > 0 for row in sweep_rec["rows"]):
        yield "sweep never completed a migration (weak coverage)"
    for row in sweep_rec["rows"]:
        churn = row["migrations"] + row["migration_aborts"]
        bound = churn * sweep_rec["concurrency"]
        if row["migration_deferred_txns"] > bound:
            yield (
                f"seed {row['seed']}: {row['migration_deferred_txns']} "
                f"deferred txns exceeds churn x concurrency ({bound})"
            )


def main() -> int:
    return run_perf_bench(
        "S1", __doc__, [bench_ring_scaling, bench_migration_disruption, bench_sharded_sweep], gates
    )


if __name__ == "__main__":
    sys.exit(main())
