"""The segmented WAL (repro.txn.durable_wal) on a simulated disk."""

import pytest

from repro.errors import ReproError, TransactionError, XmlParseError
from repro.sim.disk import SimDisk
from repro.sim.kernel import Clock, EventQueue
from repro.sim.metrics import MetricsCollector
from repro.txn.durable_wal import DurableWal
from repro.txn.modes import DurabilityPolicy
from repro.txn.wal import (
    LogEntry,
    OperationLog,
    entry_from_xml,
    entry_to_xml,
    _encode_frame,
    _read_frame,
)


#: Well-formed XML that is not a log entry: attributes missing or of the
#: wrong type (``KeyError('seq')`` / bare ``ValueError`` before typing) —
#: and, last, a torn one (the parser's own typed error).
MALFORMED_ENTRIES = [
    "<x/>",
    "<entry seq='x'/>",
    '<entry seq="1" txn="T" kind="update" document="D" timestamp="soon"/>',
    '<entry seq="1" txn="T" kind="update" document="D"><record kind="odd"/></entry>',
    '<entry seq="1" txn="T" kind="update" document="D">'
    '<record kind="insert" node="n1" parent="d1.n1" index="0"/></entry>',
    '<entry seq="1" txn="T" kind="update" document="D"><record kind="replace"/></entry>',
    "<entry",
]


def make_entry(seq, txn_id="T1", action="<a/>"):
    return LogEntry(
        seq=seq, txn_id=txn_id, kind="update", document_name="D",
        action_xml=action, records=[], timestamp=float(seq) / 8,
    )


#: The WAL's directory on the disk.
DIR = "P1"


@pytest.fixture
def disk():
    return SimDisk()


def open_wal(disk, metrics=None, **policy_kwargs):
    """Peer P1's WAL on *disk*, with its own metrics and an event queue
    no test runs (a group-commit timer never fires by itself)."""
    return DurableWal(
        DurabilityPolicy(DIR, **policy_kwargs), "P1", disk,
        MetricsCollector() if metrics is None else metrics, EventQueue(Clock()), dict,
    )


def segment_files(disk):
    return [n for n in disk.names(DIR) if n.endswith(".seg")]


def last_segment(disk):
    return f"{DIR}/{segment_files(disk)[-1]}"


def rewrite(disk, path, data):
    """Replace a file's bytes on *disk* (a hand-made corruption)."""
    disk.publish(path, data)


class TestEntryCodec:
    def test_single_entry_roundtrip(self):
        entry = make_entry(7, txn_id="T42", action="<x y='1'/>")
        copy = entry_from_xml(entry_to_xml(entry))
        assert copy == entry

    @pytest.mark.parametrize("text", MALFORMED_ENTRIES)
    def test_malformed_entry_is_a_typed_error(self, text):
        with pytest.raises(ReproError) as raised:
            entry_from_xml(text)
        if not isinstance(raised.value, XmlParseError):
            assert "malformed log entry" in str(raised.value)

    def test_nested_replace_records_do_not_recurse(self):
        depth = 3000
        text = (
            '<entry seq="1" txn="T" kind="update" document="D">'
            + '<record kind="replace">' * depth + "</record>" * depth
            + "</entry>"
        )
        with pytest.raises(TransactionError, match="malformed log entry"):
            entry_from_xml(text)


class TestAppendAndLoad:
    def test_append_load_roundtrip(self, disk):
        wal = open_wal(disk)
        log = OperationLog("P1")
        log.attach(wal)
        log.append("T1", "update", "D", "<a/>", (), 0.0, None)
        log.append("T2", "update", "D", "<b/>", (), 0.0, None)
        scan = wal.load()
        assert not scan.torn
        assert [(e.seq, e.txn_id) for e in scan.entries] == [(1, "T1"), (2, "T2")]

    def test_tombstone_filters_truncated_txn(self, disk):
        wal = open_wal(disk)
        log = OperationLog("P1")
        log.attach(wal)
        log.append("T1", "update", "D", "<a/>", (), 0.0, None)
        log.append("T2", "update", "D", "<b/>", (), 0.0, None)
        log.truncate("T1")
        scan = wal.load()
        assert [e.txn_id for e in scan.entries] == ["T2"]

    def test_tombstone_only_kills_earlier_entries(self, disk):
        # A transaction can abort (tombstone) and then be retried on the
        # same peer: the retry appends fresh entries for the *same* txn
        # id after the tombstone.  Those entries are live — a tombstone
        # suppresses only what precedes it in the stream, and a restart
        # must recover the retry's share.
        wal = open_wal(disk)
        log = OperationLog("P1")
        log.attach(wal)
        log.append("T1", "update", "D", "<a/>", (), 0.0, None)
        log.truncate("T1")
        retried = log.append("T1", "update", "D", "<b/>", (), 0.0, None)
        scan = wal.load()
        assert [(e.seq, e.txn_id, e.action_xml) for e in scan.entries] == [
            (retried.seq, "T1", "<b/>")
        ]
        reopened = open_wal(disk)
        assert [e.action_xml for e in reopened.load().entries] == ["<b/>"]

    def test_restart_adopts_directory(self, disk):
        wal = open_wal(disk)
        log = OperationLog("P1")
        log.attach(wal)
        log.append("T1", "update", "D", "<a/>", (), 0.0, None)
        reopened = open_wal(disk)
        restored = OperationLog("P1")
        restored.attach(reopened)
        restored.recover()
        assert len(restored) == 1
        entry = restored.append("T2", "update", "D", "<b/>", (), 0.0, None)
        assert entry.seq == 2
        assert len(reopened.load().entries) == 2

    def test_empty_directory_loads_empty(self, disk):
        wal = open_wal(disk)
        scan = wal.load()
        assert scan.entries == [] and not scan.torn


class TestTornTail:
    def _wal_with_entries(self, disk, count=3):
        wal = open_wal(disk)
        log = OperationLog("P1")
        log.attach(wal)
        for i in range(count):
            log.append("T1", "update", "D", f"<a i='{i}'/>", (), 0.0, None)
        return wal

    def test_truncated_frame_detected_and_discarded(self, disk):
        wal = self._wal_with_entries(disk)
        seg = last_segment(disk)
        rewrite(disk, seg, disk.read(seg)[:-5])  # chop mid-frame
        wal2 = open_wal(disk)
        # The torn frame is gone; the durable prefix survives.
        assert [e.seq for e in wal2.load().entries] == [1, 2]

    def test_garbage_frame_header_stops_scan(self, disk):
        wal = self._wal_with_entries(disk, count=2)
        disk.append(last_segment(disk), b"XX not a frame\n")
        scan = wal.load()
        assert scan.torn
        assert [e.seq for e in scan.entries] == [1, 2]

    def test_seq_regression_is_a_torn_tail(self, disk):
        wal = self._wal_with_entries(disk, count=2)
        # Hand-forge a stale frame whose seq goes backwards.
        wal._write_frames([_encode_frame("E", entry_to_xml(make_entry(1, txn_id="T9")))])
        scan = wal.load()
        assert scan.torn
        assert [(e.seq, e.txn_id) for e in scan.entries] == [
            (1, "T1"), (2, "T1"),
        ]

    def test_reload_truncates_and_resumes_cleanly(self, disk):
        wal = self._wal_with_entries(disk)
        seg = last_segment(disk)
        rewrite(disk, seg, disk.read(seg)[:-5])
        wal2 = open_wal(disk)
        log = OperationLog("P1")
        log.attach(wal2)
        log.recover()
        log.append("T2", "update", "D", "<b/>", (), 0.0, None)
        scan = wal2.load()
        assert not scan.torn
        assert [e.seq for e in scan.entries] == [1, 2, 3]


class TestHostileDirectory:
    """Corrupt or foreign files in the WAL directory never crash a
    restart: undecodable frames are a torn tail, files that are not this
    WAL's segments/checkpoints are ignored, unknown versions rejected."""

    def _three_entries(self, disk, **policy_kwargs):
        wal = open_wal(disk, **policy_kwargs)
        log = OperationLog("P1")
        log.attach(wal)
        for i in range(3):
            log.append("T1", "update", "D", f"<a i='{i}'/>", (), 0.0, None)
        return last_segment(disk)

    def test_undecodable_payload_is_a_torn_tail(self, disk):
        seg = self._three_entries(disk)
        data = bytearray(disk.read(seg))
        data[-10] = 0xFF  # inside the last frame's payload: not UTF-8
        rewrite(disk, seg, bytes(data))
        metrics = MetricsCollector()
        wal = open_wal(disk, metrics=metrics)
        assert [e.seq for e in wal.last_recovery.entries] == [1, 2]
        assert metrics.get("wal_torn_tails") == 1
        assert [e.seq for e in wal.reload()] == [1, 2]

    @pytest.mark.parametrize("text", MALFORMED_ENTRIES[:2])
    def test_malformed_entry_frame_is_a_torn_tail(self, disk, text):
        seg = self._three_entries(disk)
        disk.append(seg, _encode_frame("E", text))
        disk.sync(seg)
        wal = open_wal(disk)
        assert wal.last_recovery.torn
        assert [e.seq for e in wal.last_recovery.entries] == [1, 2, 3]

    def test_scan_does_not_swallow_programming_errors(self, disk, monkeypatch):
        import repro.txn.durable_wal as durable_wal

        self._three_entries(disk)

        def broken(payload):
            raise RuntimeError("not a decode failure")

        monkeypatch.setattr(durable_wal, "entry_from_xml", broken)
        with pytest.raises(RuntimeError):
            open_wal(disk)

    @pytest.mark.parametrize("stray", ["wal-backup.seg", "wal-1.seg", "wal-0000001.seg"])
    def test_foreign_segment_names_are_ignored(self, disk, stray):
        self._three_entries(disk)
        rewrite(disk, f"{DIR}/{stray}", b"not ours\n")
        wal = open_wal(disk)
        assert [e.seq for e in wal.load().entries] == [1, 2, 3]
        assert disk.read(f"{DIR}/{stray}") == b"not ours\n"

    def test_foreign_checkpoint_names_are_ignored(self, disk):
        self._three_entries(disk, checkpoint_every=2)
        rewrite(disk, f"{DIR}/ckpt-backup.ckpt", b"not ours\n")
        wal = open_wal(disk, checkpoint_every=2)
        assert [e.seq for e in wal.load().entries] == [1, 2, 3]
        assert "ckpt-backup.ckpt" in disk.names(DIR)

    @pytest.mark.parametrize("header", [b"AXMLWAL 10 P1", b"AXMLWAL 1x P1", b"AXMLWALL 1 P1"])
    def test_header_version_is_compared_as_a_field(self, disk, header):
        seg = self._three_entries(disk)
        data = disk.read(seg)
        assert data.startswith(b"AXMLWAL 1 P1\n")
        rewrite(disk, seg, header + data[data.index(b"\n"):])
        wal = open_wal(disk)
        assert wal.last_recovery.torn and wal.last_recovery.entries == []


class TestFrameCodec:
    def test_roundtrip_with_and_without_name(self):
        blob = _encode_frame("E", "päyload") + _encode_frame("D", "<d/>", "doc")
        kind, name, payload, pos = _read_frame(blob, 0)
        assert (kind, name, payload) == ("E", None, "päyload")
        assert _read_frame(blob, pos) == ("D", "doc", "<d/>", len(blob))

    @pytest.mark.parametrize("blob", [
        b"E 3\nab",            # short payload
        b"E 3\nabcX",          # missing terminator
        b"E\nabc\n",           # no length field
        b"E x\nabc\n",         # non-numeric length
        b"E -1\n\n",           # negative length
        b"E 3 a b\nabc\n",     # too many header fields
        b"E 3\na\xffc\n",      # undecodable payload
        b"\xff 3\nabc\n",      # undecodable header
        b"E 3",                # no header line at all
    ])
    def test_torn_frames_read_as_none(self, blob):
        assert _read_frame(blob, 0) is None


class TestRolloverCompaction:
    """Without checkpoints the segment grows until a restart; ``reload``
    then rolls the live entries over into a fresh segment."""

    def test_rollover_drops_tombstoned_frames(self, disk):
        wal = open_wal(disk)
        log = OperationLog("P1")
        log.attach(wal)
        log.append("T1", "update", "D", "<a/>", (), 0.0, None)
        log.append("T1", "update", "D", "<b/>", (), 0.0, None)
        log.append("T2", "update", "D", "<c/>", (), 0.0, None)
        log.truncate("T1")
        assert segment_files(disk) == ["wal-000001.seg"]
        assert [e.txn_id for e in wal.reload()] == ["T2"]
        assert segment_files(disk) == ["wal-000002.seg"]
        blob = disk.read(f"{DIR}/wal-000002.seg")
        assert blob.count(b"\nE ") == 1 and b"\nT " not in blob

    def test_restart_after_rollover(self, disk):
        wal = open_wal(disk)
        log = OperationLog("P1")
        log.attach(wal)
        for i in range(300):
            log.append(f"T{i}", "update", "D", "<a/>", (), 0.0, None)
        assert segment_files(disk) == ["wal-000001.seg"]
        wal2 = open_wal(disk)  # adopting the directory reloads
        assert segment_files(disk) == ["wal-000002.seg"]
        assert len(wal2.load().entries) == 300

    def test_metrics_counters(self, disk):
        metrics = MetricsCollector()
        wal = open_wal(disk, metrics=metrics)
        log = OperationLog("P1")
        log.attach(wal)
        for _ in range(3):
            log.append("T1", "update", "D", "<a/>", (), 0.0, None)
        log.truncate("T1")
        assert metrics.get("wal_appends") == 3
        assert metrics.get("wal_tombstones") == 1
        assert metrics.get("wal_bytes") > 0

    def test_wal_bytes_matches_logical_accounting(self, disk):
        from repro.txn.wal import entry_bytes

        metrics = MetricsCollector()
        wal = open_wal(disk, metrics=metrics)
        log = OperationLog("P1")
        log.attach(wal)
        log.append("T1", "update", "D", "<a/>", (), 0.0, None)
        log.append("T1", "update", "D", "<bb/>", (), 0.0, None)
        assert metrics.get("wal_bytes") == sum(entry_bytes(e) for e in log)
