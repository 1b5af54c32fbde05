"""The log owns its crash/recover lifecycle — no cluster, no network.

A ``TransactionManager`` with a durable log runs a fixed script of three
transactions (one committed, one aborted, one left in flight) and is
crashed after every append / barrier flush / tombstone boundary, then
recovered with every share in doubt and settled as aborted — straight
away ("compensate") or after checking the in-doubt state ("in_doubt").
All-or-nothing must hold at every crash point: once the recovered shares
are settled the document equals the committed-only reference, and the
in-memory log agrees with what the WAL would recover.
"""

import pytest

from repro.axml.document import AXMLDocument
from repro.obs.spans import SpanCollector
from repro.query.parser import parse_action
from repro.sim.disk import SimDisk
from repro.sim.kernel import Clock, EventQueue
from repro.sim.metrics import MetricsCollector
from repro.txn.durable_wal import DurableWal
from repro.txn.manager import TransactionManager
from repro.txn.modes import DurabilityPolicy
from repro.txn.transaction import Transaction
from repro.xmlstore.serializer import canonical_digest

#: WAL write modes: the plain path and group commit + checkpoints.
WAL_MODES = {
    "plain": dict(wal_batch=1),
    "batched": dict(wal_batch=4, checkpoint_every=3),
}


N_STEPS = 11
T1_COMMIT = 2


def _insert(manager, txn_id, marker):
    manager.execute(
        txn_id,
        parse_action(
            f'<action type="insert"><data><slot c="{marker}"/></data>'
            "<location>Select d from d in D//slots;</location></action>"
        ),
        "D",
    )


def _script(manager, wal):
    """The boundaries, in order (T1 commits at step ``T1_COMMIT``)."""
    def begin(txn_id):
        manager.begin(Transaction(txn_id, "P"))

    return [
        lambda: (begin("T1"), _insert(manager, "T1", "a")),
        lambda: _insert(manager, "T1", "b"),
        lambda: manager.commit_local("T1"),
        lambda: (begin("T2"), _insert(manager, "T2", "c")),
        wal.flush,
        lambda: _insert(manager, "T2", "d"),
        lambda: manager.abort_local("T2"),
        lambda: (begin("T3"), _insert(manager, "T3", "e")),
        lambda: _insert(manager, "T3", "f"),
        wal.flush,
        lambda: _insert(manager, "T3", "g"),
    ]


def _world(durable=False, **policy_kwargs):
    document = AXMLDocument.from_xml("<D><slots/></D>", name="D")
    manager = TransactionManager("P", {"D": document}.__getitem__, SpanCollector(lambda: 0.0))
    wal = None
    if durable:
        wal = DurableWal(
            DurabilityPolicy("P", **policy_kwargs), "P", SimDisk(), MetricsCollector(),
            EventQueue(Clock()), lambda: {"D": document.to_xml()},
        )
        manager.log.attach(wal)
    return manager, wal, document


def _live(manager):
    """Transactions whose share on *manager* still awaits a decision."""
    return [t for t in manager.contexts if manager.live_context(t) is not None]


def _committed_only(crash_point):
    """Digest of a document holding only the transactions whose commit
    step ran before *crash_point*."""
    manager, _wal, document = _world()
    if crash_point > T1_COMMIT:
        manager.begin(Transaction("T1", "P"))
        _insert(manager, "T1", "a")
        _insert(manager, "T1", "b")
        manager.commit_local("T1")
    return canonical_digest(document.document)


@pytest.mark.parametrize("settle", ["compensate", "in_doubt"])
@pytest.mark.parametrize("wal_mode", sorted(WAL_MODES))
@pytest.mark.parametrize("crash_point", range(N_STEPS + 1))
def test_all_or_nothing_at_every_crash_point(crash_point, wal_mode, settle):
    manager, wal, document = _world(True, **WAL_MODES[wal_mode])
    steps = _script(manager, wal)
    assert len(steps) == N_STEPS
    for step in steps[:crash_point]:
        step()

    manager.crash()
    assert len(manager.log) == 0 and manager.contexts == {}

    recovered = manager.recover(lambda: None)
    if settle == "in_doubt":
        # Every recovered share is in doubt, and memory == disk already.
        assert recovered == len(_live(manager))
        assert [e.seq for e in manager.log] == [e.seq for e in wal.load().entries]
    # Settlement: a share still logged never saw its commit.
    for txn_id in _live(manager):
        manager.abort_local(txn_id)

    assert canonical_digest(document.document) == _committed_only(crash_point)
    assert not _live(manager)
    scan = wal.load()
    assert not scan.torn
    assert [e.seq for e in manager.log] == [e.seq for e in scan.entries] == []


@pytest.mark.parametrize("wal_mode", sorted(WAL_MODES))
def test_recovered_log_is_the_durable_prefix(wal_mode):
    """After crash + recover the *same* log object holds exactly what
    reached disk, and appends continue past the highest recovered seq."""
    manager, wal, _document = _world(True, **WAL_MODES[wal_mode])
    for step in _script(manager, wal):
        step()
    log = manager.log
    live = [e.seq for e in wal.load().entries]
    # The batched WAL's last append is still unsynced: a crash cuts it.
    durable = live[:-1] if wal_mode == "batched" else live

    manager.crash()
    assert manager.recover(lambda: None) == 1  # T3 only
    assert manager.log is log
    assert [e.seq for e in log] == durable
    assert [e.seq for e in log.entries_for("T3")] == durable
    _insert(manager, "T3", "h")
    assert [e.seq for e in log][-1] == durable[-1] + 1
