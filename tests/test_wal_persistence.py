"""Tests for the per-entry log codec, log adoption and peer rejoin."""

import pytest

from repro.axml.document import AXMLDocument
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.query.parser import parse_action
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import UpdateService
from repro.txn.compensation import build_compensation_for_entries
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction
from repro.txn.wal import OperationLog, entry_from_xml, entry_to_xml
from repro.xmlstore.serializer import canonical


def adopted(peer_id, entries):
    """A fresh log that adopted *entries* the way a restart does
    (``OperationLog.recover``)."""
    log = OperationLog(peer_id)
    log._adopt(entries)
    return log


def restart(log):
    """What a restart sees: each entry through the one persisted form
    (:func:`entry_to_xml`, as in WAL segments and checkpoints), adopted
    by a fresh log."""
    return adopted(log.peer_id, [entry_from_xml(entry_to_xml(e)) for e in log])


def populate_log(axml):
    manager = TransactionManager("P1", lambda name: axml)
    manager.begin(Transaction("T1", "P1"))
    actions = [
        '<action type="insert"><data><tag a="1">t</tag></data>'
        "<location>Select i from i in Shop//item;</location></action>",
        '<action type="replace"><data><price>99</price></data>'
        "<location>Select i/price from i in Shop//item;</location></action>",
        '<action type="delete"><location>Select i/stock from i in '
        "Shop//item;</location></action>",
    ]
    for xml in actions:
        manager.execute("T1", parse_action(xml), axml.name)
    return manager.log


@pytest.fixture
def shop():
    return AXMLDocument.from_xml(
        "<Shop><item><price>10</price><stock>3</stock></item></Shop>", name="Shop"
    )


class TestLogSerialization:
    def test_roundtrip_structure(self, shop):
        log = populate_log(shop)
        restored = restart(log)
        assert restored.peer_id == "P1"
        assert len(restored) == len(log)
        for original, copy in zip(log, restored):
            assert copy.seq == original.seq
            assert copy.txn_id == original.txn_id
            assert copy.kind == original.kind
            assert copy.document_name == original.document_name
            assert copy.action_xml == original.action_xml
            assert [r.kind for r in copy.records] == [
                r.kind for r in original.records
            ]

    def test_restored_records_carry_snapshots(self, shop):
        log = populate_log(shop)
        restored = restart(log)
        delete_entry = restored.entries_for("T1")[2]
        assert "stock" in delete_entry.records[0].snapshot_xml

    def test_restored_log_compensates(self, shop):
        pre = None
        fresh = AXMLDocument.from_xml(
            "<Shop><item><price>10</price><stock>3</stock></item></Shop>",
            name="Shop",
        )
        pre = canonical(fresh.document)
        # Run the ops on *fresh*, persist the log, restore, compensate.
        log = populate_log(fresh)
        restored = restart(log)
        for plan in build_compensation_for_entries(restored.undo_entries("T1")):
            plan.execute(fresh.document)
        assert canonical(fresh.document) == pre

    def test_seq_continues_after_restore(self, shop):
        log = populate_log(shop)
        restored = restart(log)
        entry = restored.append("T2", "update", "Shop", "<a/>")
        assert entry.seq == len(log) + 1

    def test_empty_log_roundtrip(self):
        log = OperationLog("P")
        restored = restart(log)
        assert len(restored) == 0

    def test_zero_record_entry_roundtrip(self):
        log = OperationLog("P")
        log.append("T1", "query", "Shop", "<query>Select i;</query>",
                   records=(), timestamp=1.25)
        restored = restart(log)
        entry = restored.entries_for("T1")[0]
        assert entry.records == []
        assert entry.action_xml == "<query>Select i;</query>"

    def test_replace_of_replace_roundtrip(self, shop):
        # Nest a ReplaceRecord inside another ReplaceRecord's inserted
        # list and make sure the codec recurses on the way back in.
        from repro.query.update import ReplaceRecord

        log = populate_log(shop)
        replace_entry = log.entries_for("T1")[1]
        inner = replace_entry.records[0]
        assert inner.kind == "replace"
        nested = ReplaceRecord(inner.deleted, [inner])
        log.append("T1", "update", "Shop", "<nested/>", records=[nested])
        restored = restart(log)
        copy = restored.entries_for("T1")[-1].records[0]
        assert copy.kind == "replace"
        assert copy.inserted[0].kind == "replace"
        assert copy.inserted[0].deleted.snapshot_xml == inner.deleted.snapshot_xml

    def test_timestamp_repr_roundtrip_is_exact(self):
        log = OperationLog("P")
        stamps = [0.1 + 0.2, 1.0 / 3.0, 123456.78901234567, 0.0]
        for i, stamp in enumerate(stamps):
            log.append("T1", "update", "D", f"<a i='{i}'/>", timestamp=stamp)
        restored = restart(log)
        assert [e.timestamp for e in restored] == stamps

    def test_from_entries_sorts_by_seq(self, shop):
        # A merged/reordered entry set must still compensate in true
        # reverse execution order — adoption re-sorts by seq.
        log = populate_log(shop)
        assert [e.seq for e in log] == [1, 2, 3]
        restored = adopted("P1", list(reversed(list(log))))
        assert [e.seq for e in restored] == [1, 2, 3]
        assert [e.seq for e in restored.undo_entries("T1")] == [3, 2, 1]

    def test_from_entries_rejects_duplicate_seq(self, shop):
        entries = list(populate_log(shop))
        entries[1].seq = entries[0].seq
        with pytest.raises(ValueError, match="duplicate"):
            adopted("P1", entries)

    def test_seq_continues_after_restore_and_append(self, shop):
        log = populate_log(shop)
        restored = restart(log)
        first = restored.append("T2", "update", "Shop", "<a/>")
        second = restored.append("T2", "update", "Shop", "<b/>")
        assert (first.seq, second.seq) == (len(log) + 1, len(log) + 2)


class TestApproximateBytes:
    def test_nested_records_pay_flat_overhead(self, shop):
        # Every record pays the same +32, at every nesting level: a
        # replace charges itself plus the full accounting of its halves
        # (regression: nested records used to skip the overhead).
        log = populate_log(shop)
        replace_entry = log.entries_for("T1")[1]
        record = replace_entry.records[0]
        assert record.kind == "replace"
        from repro.txn.wal import _record_bytes, entry_bytes

        expected = (
            32
            + _record_bytes(record.deleted)
            + sum(_record_bytes(r) for r in record.inserted)
        )
        assert _record_bytes(record) == expected
        assert record.deleted.kind == "delete"
        assert _record_bytes(record.deleted) == 32 + len(
            record.deleted.snapshot_xml
        )
        assert entry_bytes(replace_entry) == (
            len(replace_entry.action_xml)
            + sum(_record_bytes(r) for r in replace_entry.records)
        )
        assert log.approximate_bytes("T1") == sum(
            entry_bytes(e) for e in log.entries_for("T1")
        )


class TestPeerRejoin:
    def _world(self):
        network = SimNetwork()
        origin = AXMLPeer("Origin", network)
        worker = AXMLPeer("Worker", network)
        worker.host_document(
            AXMLDocument.from_xml("<D><slots/></D>", name="D")
        )
        worker.host_service(
            UpdateService(
                ServiceDescriptor("book", params=("c",), target_document="D"),
                '<action type="insert"><data><slot c="$c"/></data>'
                "<location>Select d from d in D//slots;</location></action>",
            )
        )
        return network, origin, worker

    def test_rejoin_compensates_in_flight(self):
        network, origin, worker = self._world()
        pre = canonical(worker.get_axml_document("D").document)
        txn = origin.begin_transaction()
        origin.invoke(txn.txn_id, "Worker", "book", {"c": "x"})
        network.disconnect("Worker")
        # worker comes back with its in-flight share in doubt; the
        # transaction was aborted around it, so it compensates
        assert worker.rejoin() == 1
        assert worker.resolve_in_doubt(txn.txn_id, committed=False) == "aborted"
        assert canonical(worker.get_axml_document("D").document) == pre
        assert network.is_alive("Worker")

    def test_rejoin_keeps_a_share_that_committed_meanwhile(self):
        # The origin committed while the worker was away: the share the
        # worker rebuilds in doubt settles as committed, not compensated.
        network, origin, worker = self._world()
        txn = origin.begin_transaction()
        origin.invoke(txn.txn_id, "Worker", "book", {"c": "x"})
        network.disconnect("Worker")
        origin.commit(txn.txn_id)  # the decision cannot reach the worker
        assert worker.rejoin() == 1
        assert worker.resolve_in_doubt(txn.txn_id, committed=True) == "committed"
        assert 'c="x"' in worker.get_axml_document("D").to_xml()

    def test_rejoin_after_commit_is_noop(self):
        network, origin, worker = self._world()
        txn = origin.begin_transaction()
        origin.invoke(txn.txn_id, "Worker", "book", {"c": "x"})
        origin.commit(txn.txn_id)
        network.disconnect("Worker")
        assert worker.rejoin() == 0
        assert "slot" in worker.get_axml_document("D").to_xml()

    def test_rejoin_metric(self):
        network, origin, worker = self._world()
        network.disconnect("Worker")
        worker.rejoin()
        assert network.metrics.get("peer_rejoins") == 1
