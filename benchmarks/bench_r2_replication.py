"""R2 — WAL-shipping replication and deterministic failover.

Two measurements (docs/REPLICATION.md):

* Part A, replicated chaos sweep: seeded chaos runs with ``replicas=2``
  and crash faults on.  The atomicity oracle (including the
  ``replica_diverged`` predicate) must report **zero** violations for
  every seed, and each run must be byte-identical when re-executed —
  replication may not cost determinism.  Shipping volume (frames,
  bytes, failovers, resyncs) is recorded per seed as context.
* Part B, failover replay bound: a primary is killed while shipped
  frames sit unacked on a lagging replica.  Failover must replay *only*
  the shipped tail — the replayed entry count is gated to be at least 1
  and at most the shipped lag at crash time (never a full state
  transfer on the hot path).
* Part C, dead-replica commit cost: a primary commits while its only
  replica is down (``ship_batch=1``), so every commit re-offers the
  whole growing backlog.  The Python calls made under
  ``ReplicationManager.on_committed`` per commit, counted with
  ``sys.setprofile``, are gated to stay flat: at 100 commits at most
  1.1x the count at 10 (re-summing the backlog grows it linearly).

Gates are deterministic (logical counters, not wall time); wall-clock
times are informational only.

Run:  python benchmarks/bench_r2_replication.py [--smoke]
Out:  benchmarks/results/BENCH_R2[_smoke].json   (repro-bench-perf/1)
"""

from __future__ import annotations

import sys
import time

from _util import perf_record, run_perf_bench

from repro.axml.document import AXMLDocument
from repro.chaos import ChaosConfig, run_chaos
from repro.chaos.shrink import summary_text
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.p2p.replication import ReplicationManager
from repro.services.descriptor import ParamSpec, ServiceDescriptor
from repro.services.service import UpdateService
from repro.txn.recovery import DISCONNECT_FAULT, FaultPolicy

SHOP2 = "<Shop2><item id='1'><price>10</price></item></Shop2>"

SET_PRICE = (
    '<action type="replace"><data><price>$price</price></data>'
    "<location>Select i/price from i in Shop2//item;</location></action>"
)


def bench_replicated_sweep(args) -> dict:
    """Part A: zero-violation, deterministic replicated chaos sweep."""
    seeds = range(1, 4) if args.smoke else range(1, 11)
    txns = 8 if args.smoke else 12
    rows = []
    violations_total = 0
    nondeterministic = 0
    start = time.perf_counter()
    for seed in seeds:
        config = ChaosConfig(
            seed=seed, txns=txns, fault_rate=0.2, crash_rate=0.3,
            replicas=2, ship_batch=2, durability=True,
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
            "ship_frames": counters.get("ship_frames", 0),
            "ship_bytes": counters.get("ship_bytes", 0),
            "failovers": counters.get("failovers", 0),
            "replica_resyncs": counters.get("replica_resyncs", 0),
        })
        print(
            f"R2/A seed {seed}: {len(result.violations)} violations, "
            f"{counters.get('ship_frames', 0)} frames "
            f"({counters.get('ship_bytes', 0)} bytes) shipped, "
            f"{counters.get('failovers', 0)} failovers, "
            f"deterministic={identical}"
        )
    elapsed = time.perf_counter() - start
    return perf_record(
        "replicated_chaos_sweep",
        args.seed,
        elapsed,
        1.0,  # gate quantity is the violation count, not a ratio
        seeds=list(seeds),
        txns_per_seed=txns,
        violations_total=violations_total,
        nondeterministic_seeds=nondeterministic,
        rows=rows,
    )


def primary_with_replica():
    """AP1 (origin) invoking setPrice on AP2, the primary of Shop2, whose
    document and service are replicated on AP3."""
    network = SimNetwork()
    replication = ReplicationManager(network)
    origin = AXMLPeer("AP1", network)
    primary = AXMLPeer("AP2", network)
    primary.host_document(AXMLDocument.from_xml(SHOP2, name="Shop2"))
    primary.host_service(UpdateService(
        ServiceDescriptor(
            "setPrice", kind="update", params=(ParamSpec("price"),),
            target_document="Shop2",
        ),
        SET_PRICE,
    ))
    replication.register_primary("Shop2", "AP2")
    replication.register_service("setPrice", "AP2")
    AXMLPeer("AP3", network)
    replication.replicate_document("Shop2", "AP3")
    replication.replicate_service("setPrice", "AP3")
    origin.set_fault_policy(
        "setPrice", [FaultPolicy(fault_names={DISCONNECT_FAULT}, retry_times=1)]
    )
    return network, replication, origin


def bench_failover_replay(args) -> dict:
    """Part B: failover replays the shipped tail, bounded by the lag."""
    network, replication, origin = primary_with_replica()
    # Commit N transactions against a lagging replica: frames pile up
    # unacked in AP3's inbox.
    committed = 4 if args.smoke else 12
    replication.lag_replica("AP3")
    for i in range(committed):
        txn = origin.begin_transaction()
        origin.invoke(txn.txn_id, "AP2", "setPrice", {"price": str(20 + i)})
        origin.commit(txn.txn_id)
    shipped_lag = len(replication._channel("AP2", "AP3").unacked)

    # Kill the primary between flush and ack; the next invocation fails
    # over and must replay exactly the shipped tail.
    network.disconnect("AP2")
    start = time.perf_counter()
    txn = origin.begin_transaction()
    origin.invoke(txn.txn_id, "AP2", "setPrice", {"price": "99"})
    origin.commit(txn.txn_id)
    elapsed = time.perf_counter() - start
    replayed = network.metrics.get("failover_replay_entries")
    print(
        f"R2/B failover: {shipped_lag} shipped-unacked entries at crash, "
        f"{replayed} replayed on the failover target "
        f"({network.metrics.get('failovers')} failovers, {elapsed:.4f}s)"
    )
    return perf_record(
        "failover_replay_bound",
        args.seed,
        elapsed,
        1.0,
        committed_before_crash=committed,
        shipped_lag=shipped_lag,
        failover_replay_entries=replayed,
        failovers=network.metrics.get("failovers"),
    )


def calls_per_dead_replica_commit(commits: int) -> float:
    """Python calls made under ``on_committed`` per commit while the
    replica is down (every commit re-offers the backlog and fails)."""
    network, replication, origin = primary_with_replica()
    network.disconnect("AP3")
    target = ReplicationManager.on_committed.__code__
    inside = None
    calls = 0

    def count(frame, event, arg):
        nonlocal inside, calls
        if inside is None:
            if event == "call" and frame.f_code is target:
                inside = frame
        elif event == "call":
            calls += 1
        elif event == "return" and frame is inside:
            inside = None

    for i in range(commits):
        txn = origin.begin_transaction()
        origin.invoke(txn.txn_id, "AP2", "setPrice", {"price": str(i)})
        sys.setprofile(count)
        try:
            origin.commit(txn.txn_id)
        finally:
            sys.setprofile(None)
    assert network.metrics.get("ship_failures") == commits
    return calls / commits


def bench_dead_replica_commit_cost(args) -> dict:
    """Part C: a commit's replication work does not grow with the
    backlog a dead replica leaves behind."""
    start = time.perf_counter()
    short, long = 10, 100
    per_commit = {n: calls_per_dead_replica_commit(n) for n in (short, long)}
    elapsed = time.perf_counter() - start
    growth = per_commit[long] / per_commit[short]
    print(
        f"R2/C dead replica: {per_commit[short]:.1f} calls per commit "
        f"over {short} commits, {per_commit[long]:.1f} over {long} "
        f"(growth {growth:.3f}x, bound 1.1x)"
    )
    return perf_record(
        "dead_replica_commit_cost",
        args.seed,
        elapsed,
        1.0,  # gate quantity is the per-commit call growth, not a ratio
        commits=[short, long],
        calls_per_commit=[round(per_commit[short], 2), round(per_commit[long], 2)],
        growth=round(growth, 4),
    )


def gates(args, sweep_rec, replay_rec, cost_rec):
    """Reasons this run fails its gate.  Deterministic counters, not wall time."""
    if sweep_rec["violations_total"] != 0:
        yield (
            f"replicated sweep reported {sweep_rec['violations_total']} "
            f"oracle violations (expected 0)"
        )
    if sweep_rec["nondeterministic_seeds"] != 0:
        yield (
            f"{sweep_rec['nondeterministic_seeds']} seeds were not "
            f"byte-identical on rerun"
        )
    if not any(row["failovers"] > 0 for row in sweep_rec["rows"]):
        yield "sweep never exercised a failover (weak coverage)"
    replayed = replay_rec["failover_replay_entries"]
    lag = replay_rec["shipped_lag"]
    if not (1 <= replayed <= lag):
        yield (
            f"failover replayed {replayed} entries for a shipped lag of "
            f"{lag} (expected 1 <= replayed <= lag)"
        )
    if cost_rec["growth"] > 1.1:
        yield (
            f"calls per dead-replica commit grew {cost_rec['growth']}x from "
            f"{cost_rec['commits'][0]} to {cost_rec['commits'][1]} commits "
            f"(bound 1.1x): a re-offer costs the whole backlog"
        )


def main() -> int:
    return run_perf_bench(
        "R2", __doc__,
        [bench_replicated_sweep, bench_failover_replay, bench_dead_replica_commit_cost],
        gates,
    )


if __name__ == "__main__":
    sys.exit(main())
