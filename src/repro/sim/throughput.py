"""Throughput experiment (T1): commit rate under concurrent load.

Builds a small OCC-enabled cluster (each peer hosts its own generated
catalogue), drives it with the concurrent
:class:`~repro.sim.scheduler.TransactionScheduler` in closed-loop mode,
and reduces each parameter point — (clients, hot-spot fraction, failure
rate) — to one :class:`~repro.sim.harness.ExperimentTable` row:

========  =====================================================
column    meaning
========  =====================================================
clients   concurrent closed-loop clients (= max in-flight)
hot       probability an operation hits the shared hot spot
fail      probability a transaction abandons mid-flight
txns      logical transactions run at this point
committed transactions that reached commit (possibly retried)
conflict  terminal aborts after exhausting conflict retries
failure   terminal aborts from the failure knob
retries   conflict-triggered re-attempts across all txns
abort_pct terminal aborts / txns, in percent
tput      committed transactions per simulated second
p50_lat   median arrival→commit latency (committed only)
p99_lat   99th-percentile arrival→commit latency
========  =====================================================

Everything is seeded; the same seed yields a byte-identical table (and
JSON artifact) on every run, independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.sim.harness import ExperimentTable
from repro.sim.rng import SeededRng, stable_seed
from repro.sim.scheduler import TransactionScheduler, TxnSpec
from repro.sim.workload import (
    OperationMix,
    generate_catalogue,
    generate_contended_transaction,
)

#: Operation mix for throughput runs: no deletes, so pre-targeted
#: operations never lose their target mid-run to a concurrent delete.
THROUGHPUT_MIX = OperationMix(insert=0.35, delete=0.0, replace=0.45, query=0.2)

#: Columns of the T1 table, in render order.
T1_COLUMNS = (
    "clients",
    "hot",
    "fail",
    "txns",
    "committed",
    "conflict",
    "failure",
    "retries",
    "abort_pct",
    "tput",
    "p50_lat",
    "p99_lat",
)


def build_throughput_cluster(
    seed: int, peer_count: int = 2, items: int = 12
) -> Tuple[SimNetwork, Dict[str, AXMLPeer]]:
    """An OCC cluster for load runs: each peer hosts its own catalogue."""
    network = SimNetwork()
    peers: Dict[str, AXMLPeer] = {}
    for index in range(1, peer_count + 1):
        peer_id = f"AP{index}"
        peer = AXMLPeer(peer_id, network, occ=True)
        doc_rng = SeededRng(stable_seed(seed, f"catalogue:{peer_id}"))
        peer.host_document(
            generate_catalogue(doc_rng, items, name=f"Catalogue{index}")
        )
        peers[peer_id] = peer
    return network, peers


def run_throughput_point(
    seed: int,
    clients: int,
    hot_fraction: float,
    fail_rate: float,
    txns_per_client: int = 5,
    txn_length: int = 4,
    think_time: float = 0.02,
    max_attempts: int = 6,
    peer_count: int = 2,
    items: int = 12,
) -> Dict[str, Any]:
    """One parameter point of the sweep; returns the table row."""
    network, peers = build_throughput_cluster(seed, peer_count, items)
    peer_ids = sorted(peers)
    scheduler = TransactionScheduler(
        network,
        max_inflight=clients,
        max_attempts=max_attempts,
        seed=stable_seed(seed, f"sched:{clients}:{hot_fraction}:{fail_rate}"),
    )
    workload_rng = SeededRng(
        stable_seed(seed, f"workload:{clients}:{hot_fraction}:{fail_rate}")
    )

    def make_spec(client: int, index: int) -> TxnSpec:
        origin = peer_ids[client % len(peer_ids)]
        document = next(iter(peers[origin].documents.values()))
        operations = generate_contended_transaction(
            workload_rng, document, txn_length, hot_fraction, THROUGHPUT_MIX
        )
        fail_at: Optional[int] = None
        if workload_rng.coin(fail_rate):
            fail_at = workload_rng.randint(1, txn_length)
        return TxnSpec(
            label=f"c{client}t{index}",
            origin=origin,
            operations=tuple(operations),
            fail_at=fail_at,
        )

    scheduler.run_closed_loop(clients, txns_per_client, make_spec, think_time)
    results = scheduler.run()

    counts = scheduler.outcome_counts()
    total = len(results)
    committed = counts.get("committed", 0)
    aborted = total - committed
    makespan = network.clock.now
    metrics = network.metrics
    return {
        "clients": clients,
        "hot": hot_fraction,
        "fail": fail_rate,
        "txns": total,
        "committed": committed,
        "conflict": counts.get("aborted_conflict", 0),
        "failure": counts.get("aborted_failure", 0),
        "retries": metrics.get("sched_retries"),
        "abort_pct": round(100.0 * aborted / total, 2) if total else 0.0,
        "tput": round(committed / makespan, 4) if makespan > 0 else None,
        "p50_lat": _rounded(metrics.p50("txn_latency")),
        "p99_lat": _rounded(metrics.p99("txn_latency")),
    }


def _rounded(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 4)


def _t1_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side T1 point (module-level so it forks cleanly)."""
    return run_throughput_point(**payload)


def throughput_sweep(
    seed: int = 7,
    smoke: bool = False,
    workers: int = 1,
) -> ExperimentTable:
    """The T1 sweep: concurrency × contention × failure → one table.

    ``smoke`` shrinks every axis and the per-point work so CI can run
    the full pipeline in a couple of seconds.  ``workers`` > 1 evaluates
    the grid on that many processes (0 = all cores); each point builds
    its own cluster from (seed, point), and rows merge in serial order,
    so the table is byte-identical to ``workers=1``
    (:mod:`repro.sim.parallel`).
    """
    from repro.sim.parallel import parallel_map

    if smoke:
        clients_axis, hot_axis, fail_axis = (1, 2), (0.0, 0.9), (0.0,)
        point_kwargs: Dict[str, Any] = {"txns_per_client": 2, "items": 6}
    else:
        clients_axis, hot_axis, fail_axis = (1, 4, 16), (0.1, 0.9), (0.0, 0.1)
        point_kwargs = {}
    table = ExperimentTable(
        "T1: commit throughput under concurrent load (closed loop)", T1_COLUMNS
    )
    payloads = [
        dict(
            seed=seed, clients=clients, hot_fraction=hot, fail_rate=fail,
            **point_kwargs,
        )
        for clients in clients_axis
        for hot in hot_axis
        for fail in fail_axis
    ]
    for row in parallel_map(_t1_cell, payloads, workers):
        table.add_row(**row)
    table.add_note(
        f"seed={seed}; OCC on; conflict aborts retry with exponential "
        "backoff; latencies in simulated seconds"
    )
    return table


def demo_conflict_retry(seed: int = 11) -> List[Dict[str, Any]]:
    """Two clients hammering one hot spot on one peer: the canonical
    conflict → backoff → retry → commit trace.  Returns the scheduler
    results as dicts (no txn ids, artifact-safe)."""
    network, peers = build_throughput_cluster(seed, peer_count=1, items=4)
    document = next(iter(peers["AP1"].documents.values()))
    scheduler = TransactionScheduler(
        network, max_inflight=2, seed=stable_seed(seed, "demo")
    )
    rng = SeededRng(stable_seed(seed, "demo-workload"))
    for client in range(2):
        operations = generate_contended_transaction(
            rng, document, 3, hot_fraction=1.0, mix=THROUGHPUT_MIX
        )
        scheduler.submit(
            TxnSpec(f"hot{client}", "AP1", tuple(operations)), at_time=0.0
        )
    results = scheduler.run()
    return [
        {
            "label": r.label,
            "status": r.status,
            "attempts": r.attempts,
            "latency": round(r.latency, 4),
        }
        for r in results
    ]
