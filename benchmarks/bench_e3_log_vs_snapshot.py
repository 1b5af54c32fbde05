"""E3 — compensation log vs whole-document snapshots (traditional undo).

Sweeps document size at fixed transaction length.  Shape being checked:
snapshot cost grows linearly with document size while the operation
log's footprint tracks only the touched data — so the ratio
snapshot/log diverges with document size, the scaling argument for
log-based compensation.  (Snapshots are also impossible across
autonomous peers; this bench quantifies the local cost alone.)
"""

import pytest

from repro.baselines.snapshot_rollback import SnapshotRollback
from repro.errors import UpdateError
from repro.obs.spans import SpanCollector
from repro.query.update import apply_action
from repro.sim.harness import ExperimentTable, ratio
from repro.sim.rng import SeededRng
from repro.sim.workload import OperationMix, generate_catalogue, generate_operation
from repro.txn.compensation import build_compensation_for_entries
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction
from repro.xmlstore.serializer import canonical

from _util import publish

TXN_LENGTH = 8
UPDATE_MIX = OperationMix(insert=0.34, delete=0.33, replace=0.33, query=0.0)


def run_point(item_count: int, seed: int = 11):
    rng = SeededRng(seed)
    # --- log-based run --------------------------------------------------
    axml = generate_catalogue(rng, item_count=item_count, name="Cat")
    doc_nodes = axml.document.size()
    manager = TransactionManager("P", lambda name: axml, SpanCollector(lambda: 0.0))
    manager.begin(Transaction("T1", "P"))
    log = manager.log
    pre = canonical(axml.document)
    for _ in range(TXN_LENGTH):
        action = generate_operation(rng, axml, UPDATE_MIX, selective=True)
        try:
            manager.execute("T1", action, axml.name)
        except UpdateError:
            continue
    log_bytes = log.approximate_bytes("T1")
    for plan in build_compensation_for_entries(log.undo_entries("T1")):
        plan.execute(axml.document)
    assert canonical(axml.document) == pre
    # --- snapshot-based run (same seed → same workload) ------------------
    rng = SeededRng(seed)
    axml2 = generate_catalogue(rng, item_count=item_count, name="Cat")
    rollback = SnapshotRollback()
    pre2 = canonical(axml2.document)
    for _ in range(TXN_LENGTH):
        action = generate_operation(rng, axml2, UPDATE_MIX, selective=True)
        rollback.guard("T1", axml2)
        try:
            apply_action(axml2.document, action)
        except UpdateError:
            continue
    snapshot_bytes = rollback.stats.approx_bytes
    rollback.rollback("T1", axml2)
    assert canonical(axml2.document) == pre2
    return {
        "items": item_count,
        "doc_nodes": doc_nodes,
        "log_bytes": log_bytes,
        "snapshot_bytes": snapshot_bytes,
        "snap/log": ratio(snapshot_bytes, log_bytes),
    }


SIZES = (10, 50, 200, 1000, 4000)


def test_e3_log_vs_snapshot(benchmark):
    rows = [run_point(size) for size in SIZES[:-1]]
    rows.append(benchmark(run_point, SIZES[-1]))
    table = ExperimentTable(
        "E3: operation-log vs snapshot cost (txn length fixed at 8 updates)",
        ["items", "doc_nodes", "log_bytes", "snapshot_bytes", "snap/log"],
    )
    for row in rows:
        table.add_row(**row)
    # Snapshot bytes grow ~linearly with document size...
    assert rows[-1]["snapshot_bytes"] > 50 * rows[0]["snapshot_bytes"]
    # ...while the log is bounded by touched data: the ratio diverges.
    assert rows[-1]["snap/log"] > 10 * rows[0]["snap/log"]
    table.add_note("both mechanisms verified to restore the exact pre-state")
    publish(table, "e3_log_vs_snapshot.txt")
