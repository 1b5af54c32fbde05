"""R1 — bounded recovery via checkpoints + WAL group commit.

Two measurements (DESIGN.md index row R1):

* Part A, recovery replay vs WAL length: a durable worker runs N
  committed one-invoke transactions, then crashes and rejoins.  Without
  checkpoints, recovery re-parses every entry frame ever logged —
  ``recovery_replay_entries`` grows linearly with N.  With
  ``checkpoint_every=K``, recovery loads the newest checkpoint and
  replays only the segment tail — bounded by K regardless of N.
* Part B, write-path group commit: a durable origin commits
  transactions of several local ``submit``s each — no message between
  them, so nothing forces a write-ahead barrier before the commit —
  with ``wal_batch=1`` (one physical flush per frame) vs a batched WAL
  (the commit-time tombstone barrier writes the transaction's entries
  as one multi-frame flush).  The batched leg must issue far fewer
  physical flushes for the same logical appends.

Gates are deterministic (logical counters, not wall time): replay
counts must be exactly linear without checkpoints and ≤ the checkpoint
interval with them; batching must at least halve physical flushes.
Wall-clock times are recorded as informational context only.

Run:  python benchmarks/bench_r1_recovery.py [--smoke]
Out:  benchmarks/results/BENCH_R1[_smoke].json   (repro-bench-perf/1)
"""

from __future__ import annotations

import sys
import time

from _util import perf_record, run_perf_bench

from repro.axml.document import AXMLDocument
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import UpdateService
from repro.txn.modes import DurabilityPolicy


def _durable_world(checkpoint_every: int):
    """Origin + one durable worker hosting a single update service."""
    network = SimNetwork()
    origin = AXMLPeer("Origin", network)
    worker = AXMLPeer(
        "Worker",
        network,
        durability=DurabilityPolicy(directory="Worker", checkpoint_every=checkpoint_every),
    )
    worker.host_document(AXMLDocument.from_xml("<D><slots/></D>", name="D"))
    worker.host_service(UpdateService(
        ServiceDescriptor("book", params=("c",), target_document="D"),
        '<action type="insert"><data><slot c="$c"/></data>'
        "<location>Select d from d in D//slots;</location></action>",
    ))
    return network, origin, worker


def _measure_recovery(wal_length: int, checkpoint_every: int):
    """Run *wal_length* committed txns, crash, rejoin; returns
    ``(replayed_entries, recovery_seconds)``."""
    network, origin, worker = _durable_world(checkpoint_every)
    for i in range(wal_length):
        txn = origin.begin_transaction()
        origin.invoke(txn.txn_id, "Worker", "book", {"c": f"c{i}"})
        origin.commit(txn.txn_id)
    worker.crash()
    before = network.metrics.get("recovery_replay_entries")
    start = time.perf_counter()
    worker.rejoin()
    elapsed = time.perf_counter() - start
    replayed = network.metrics.get("recovery_replay_entries") - before
    return replayed, elapsed


def bench_recovery(args) -> dict:
    # Deliberately not multiples of the interval, so the checkpointed
    # leg always replays a non-empty tail (N mod interval entries).
    lengths = (35, 67) if args.smoke else (130, 270, 530, 1030)
    interval = 16 if args.smoke else 64
    rows = []
    for n in lengths:
        flat_replay, flat_time = _measure_recovery(n, checkpoint_every=interval)
        linear_replay, linear_time = _measure_recovery(n, checkpoint_every=0)
        rows.append({
            "wal_length": n,
            "replay_no_checkpoint": linear_replay,
            "replay_checkpointed": flat_replay,
            "recovery_no_checkpoint_s": round(linear_time, 6),
            "recovery_checkpointed_s": round(flat_time, 6),
        })
        print(
            f"R1/A recovery, WAL length {n}: replay "
            f"{linear_replay} entries ({linear_time:.4f}s) without "
            f"checkpoints vs {flat_replay} (<= {interval}) "
            f"({flat_time:.4f}s) with checkpoint_every={interval}"
        )
    last = rows[-1]
    speedup = (
        last["recovery_no_checkpoint_s"] / last["recovery_checkpointed_s"]
        if last["recovery_checkpointed_s"] > 0 else float("inf")
    )
    return perf_record(
        "recovery_replay_checkpointed_vs_full",
        args.seed,
        last["recovery_checkpointed_s"],
        round(speedup, 4),
        checkpoint_every=interval,
        lengths=list(lengths),
        rows=rows,
    )


def _commit_workload(wal_batch: int, txns: int, ops: int):
    """Run *txns* committed transactions of *ops* local submits each on a
    durable origin with *wal_batch*; returns ``(seconds, counters_dict)``."""
    network = SimNetwork()
    origin = AXMLPeer(
        "Origin", network,
        durability=DurabilityPolicy(directory="Origin", wal_batch=wal_batch),
    )
    origin.host_document(
        AXMLDocument.from_xml("<D><slots/></D>", name="D")
    )
    start = time.perf_counter()
    for i in range(txns):
        txn = origin.begin_transaction()
        for j in range(ops):
            origin.submit(
                txn.txn_id,
                f'<action type="insert"><data><slot c="c{i}.{j}"/></data>'
                "<location>Select d from d in D//slots;</location></action>",
            )
        origin.commit(txn.txn_id)
    elapsed = time.perf_counter() - start
    return elapsed, dict(network.metrics.snapshot())


def bench_group_commit(args) -> dict:
    txns = 16 if args.smoke else 100
    ops = 4
    serial_time, serial_counters = _commit_workload(1, txns, ops)
    # Batched leg: accumulate each transaction's entries and let the
    # commit-time tombstone barrier write them as one multi-frame flush.
    batched_time, batched_counters = _commit_workload(32, txns, ops)

    appends = batched_counters.get("wal_appends", 0)
    batch_flushes = batched_counters.get("wal_batch_flushes", 0)
    serial_writes = (
        serial_counters.get("wal_appends", 0)
        + serial_counters.get("wal_tombstones", 0)
    )
    speedup = serial_time / batched_time if batched_time > 0 else float("inf")
    print(
        f"R1/B group commit: {appends} appends over {txns} txns -> "
        f"{serial_writes} physical writes unbatched ({serial_time:.4f}s) "
        f"vs {batch_flushes} batch flushes with wal_batch=32 "
        f"({batched_time:.4f}s)"
    )
    return perf_record(
        "t1_throughput_group_commit",
        args.seed,
        batched_time,
        round(speedup, 4),
        wal_batch=32,
        txns=txns,
        ops_per_txn=ops,
        wal_appends=appends,
        wal_batch_flushes=batch_flushes,
        unbatched_physical_writes=serial_writes,
        unbatched_wall_time=round(serial_time, 6),
    )


def gates(args, recovery_rec, commit_rec):
    """Reasons this run fails its gate.  Deterministic counters, not wall time."""
    interval = recovery_rec["checkpoint_every"]
    for row in recovery_rec["rows"]:
        if row["replay_no_checkpoint"] != row["wal_length"]:
            yield (
                f"no-checkpoint replay {row['replay_no_checkpoint']} != "
                f"WAL length {row['wal_length']} (expected exactly linear)"
            )
        if row["replay_checkpointed"] > interval:
            yield (
                f"checkpointed replay {row['replay_checkpointed']} > "
                f"interval {interval} at WAL length {row['wal_length']}"
            )
    if commit_rec["wal_batch_flushes"] * 2 > commit_rec["wal_appends"]:
        yield (
            f"group commit flushed {commit_rec['wal_batch_flushes']} "
            f"batches for {commit_rec['wal_appends']} appends "
            f"(expected <= half)"
        )


def main() -> int:
    return run_perf_bench(
        "R1", __doc__, [bench_recovery, bench_group_commit], gates
    )


if __name__ == "__main__":
    sys.exit(main())
