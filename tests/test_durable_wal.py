"""The on-disk segmented WAL (repro.txn.durable_wal) and ScratchSpace."""

import os

import pytest

from repro.errors import ReproError, TransactionError, XmlParseError
from repro.sim.kernel import ScratchSpace
from repro.txn.durable_wal import DurableWal
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


def segment_files(directory):
    return sorted(n for n in os.listdir(directory) if n.endswith(".seg"))


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
    def test_append_load_roundtrip(self, tmp_path):
        wal = DurableWal(str(tmp_path), peer_id="P1")
        log = OperationLog("P1")
        log.attach(wal)
        log.append("T1", "update", "D", "<a/>")
        log.append("T2", "update", "D", "<b/>")
        scan = wal.load()
        assert not scan.torn
        assert [(e.seq, e.txn_id) for e in scan.entries] == [(1, "T1"), (2, "T2")]
        wal.close()

    def test_tombstone_filters_truncated_txn(self, tmp_path):
        wal = DurableWal(str(tmp_path), peer_id="P1")
        log = OperationLog("P1")
        log.attach(wal)
        log.append("T1", "update", "D", "<a/>")
        log.append("T2", "update", "D", "<b/>")
        log.truncate("T1")
        scan = wal.load()
        assert [e.txn_id for e in scan.entries] == ["T2"]
        wal.close()

    def test_tombstone_only_kills_earlier_entries(self, tmp_path):
        # A transaction can abort (tombstone) and then be retried on the
        # same peer: the retry appends fresh entries for the *same* txn
        # id after the tombstone.  Those entries are live — a tombstone
        # suppresses only what precedes it in the stream, and a restart
        # must recover the retry's share.
        wal = DurableWal(str(tmp_path), peer_id="P1")
        log = OperationLog("P1")
        log.attach(wal)
        log.append("T1", "update", "D", "<a/>")
        log.truncate("T1")
        retried = log.append("T1", "update", "D", "<b/>")
        scan = wal.load()
        assert [(e.seq, e.txn_id, e.action_xml) for e in scan.entries] == [
            (retried.seq, "T1", "<b/>")
        ]
        wal.close()
        reopened = DurableWal(str(tmp_path), peer_id="P1")
        assert [e.action_xml for e in reopened.load().entries] == ["<b/>"]
        reopened.close()

    def test_restart_adopts_directory(self, tmp_path):
        wal = DurableWal(str(tmp_path), peer_id="P1")
        log = OperationLog("P1")
        log.attach(wal)
        log.append("T1", "update", "D", "<a/>")
        wal.close()
        reopened = DurableWal(str(tmp_path), peer_id="P1")
        restored = OperationLog("P1")
        restored.attach(reopened)
        restored.recover()
        assert len(restored) == 1
        entry = restored.append("T2", "update", "D", "<b/>")
        assert entry.seq == 2
        assert len(reopened.load().entries) == 2
        reopened.close()

    def test_empty_directory_loads_empty(self, tmp_path):
        wal = DurableWal(str(tmp_path), peer_id="P1")
        scan = wal.load()
        assert scan.entries == [] and not scan.torn
        wal.close()


class TestTornTail:
    def _wal_with_entries(self, tmp_path, count=3):
        wal = DurableWal(str(tmp_path), peer_id="P1")
        log = OperationLog("P1")
        log.attach(wal)
        for i in range(count):
            log.append("T1", "update", "D", f"<a i='{i}'/>")
        return wal

    def test_truncated_frame_detected_and_discarded(self, tmp_path):
        wal = self._wal_with_entries(tmp_path)
        wal.close()
        seg = tmp_path / segment_files(tmp_path)[-1]
        data = seg.read_bytes()
        seg.write_bytes(data[:-5])  # chop mid-frame
        wal2 = DurableWal(str(tmp_path), peer_id="P1")
        # The torn frame is gone; the durable prefix survives.
        assert [e.seq for e in wal2.load().entries] == [1, 2]
        wal2.close()

    def test_garbage_frame_header_stops_scan(self, tmp_path):
        wal = self._wal_with_entries(tmp_path, count=2)
        with open(os.path.join(str(tmp_path), segment_files(tmp_path)[-1]),
                  "ab") as fh:
            fh.write(b"XX not a frame\n")
        scan = wal.load()
        assert scan.torn
        assert [e.seq for e in scan.entries] == [1, 2]
        wal.close()

    def test_seq_regression_is_a_torn_tail(self, tmp_path):
        wal = self._wal_with_entries(tmp_path, count=2)
        # Hand-forge a stale frame whose seq goes backwards.
        wal._write_frames([_encode_frame("E", entry_to_xml(make_entry(1, txn_id="T9")))])
        scan = wal.load()
        assert scan.torn
        assert [(e.seq, e.txn_id) for e in scan.entries] == [
            (1, "T1"), (2, "T1"),
        ]
        wal.close()

    def test_reload_truncates_and_resumes_cleanly(self, tmp_path):
        wal = self._wal_with_entries(tmp_path)
        wal.close()
        seg = tmp_path / segment_files(tmp_path)[-1]
        seg.write_bytes(seg.read_bytes()[:-5])
        wal2 = DurableWal(str(tmp_path), peer_id="P1")
        log = OperationLog("P1")
        log.attach(wal2)
        log.recover()
        log.append("T2", "update", "D", "<b/>")
        scan = wal2.load()
        assert not scan.torn
        assert [e.seq for e in scan.entries] == [1, 2, 3]
        wal2.close()


class TestHostileDirectory:
    """Corrupt or foreign files in the WAL directory never crash a
    restart: undecodable frames are a torn tail, files that are not this
    WAL's segments/checkpoints are ignored, unknown versions rejected."""

    def _three_entries(self, tmp_path, **wal_kwargs):
        wal = DurableWal(str(tmp_path), peer_id="P1", **wal_kwargs)
        log = OperationLog("P1")
        log.attach(wal)
        for i in range(3):
            log.append("T1", "update", "D", f"<a i='{i}'/>")
        wal.close()
        return tmp_path / segment_files(tmp_path)[-1]

    def test_undecodable_payload_is_a_torn_tail(self, tmp_path):
        from repro.sim.metrics import MetricsCollector

        seg = self._three_entries(tmp_path)
        data = bytearray(seg.read_bytes())
        data[-10] = 0xFF  # inside the last frame's payload: not UTF-8
        seg.write_bytes(bytes(data))
        metrics = MetricsCollector()
        wal = DurableWal(str(tmp_path), peer_id="P1", metrics=metrics)
        assert [e.seq for e in wal.last_recovery.entries] == [1, 2]
        assert metrics.get("wal_torn_tails") == 1
        assert [e.seq for e in wal.reload()] == [1, 2]
        wal.close()

    @pytest.mark.parametrize("text", MALFORMED_ENTRIES[:2])
    def test_malformed_entry_frame_is_a_torn_tail(self, tmp_path, text):
        seg = self._three_entries(tmp_path)
        with open(seg, "ab") as handle:
            handle.write(_encode_frame("E", text))
        wal = DurableWal(str(tmp_path), peer_id="P1")
        assert wal.last_recovery.torn
        assert [e.seq for e in wal.last_recovery.entries] == [1, 2, 3]
        wal.close()

    def test_scan_does_not_swallow_programming_errors(self, tmp_path, monkeypatch):
        import repro.txn.durable_wal as durable_wal

        self._three_entries(tmp_path)

        def broken(payload):
            raise RuntimeError("not a decode failure")

        monkeypatch.setattr(durable_wal, "entry_from_xml", broken)
        with pytest.raises(RuntimeError):
            DurableWal(str(tmp_path), peer_id="P1")

    @pytest.mark.parametrize("stray", ["wal-backup.seg", "wal-1.seg", "wal-0000001.seg"])
    def test_foreign_segment_names_are_ignored(self, tmp_path, stray):
        self._three_entries(tmp_path)
        (tmp_path / stray).write_bytes(b"not ours\n")
        wal = DurableWal(str(tmp_path), peer_id="P1")
        assert [e.seq for e in wal.load().entries] == [1, 2, 3]
        assert (tmp_path / stray).read_bytes() == b"not ours\n"
        wal.close()

    def test_foreign_checkpoint_names_are_ignored(self, tmp_path):
        self._three_entries(tmp_path, checkpoint_every=2)
        (tmp_path / "ckpt-backup.ckpt").write_bytes(b"not ours\n")
        wal = DurableWal(str(tmp_path), peer_id="P1", checkpoint_every=2)
        assert [e.seq for e in wal.load().entries] == [1, 2, 3]
        assert (tmp_path / "ckpt-backup.ckpt").exists()
        wal.close()

    @pytest.mark.parametrize("header", [b"AXMLWAL 10 P1", b"AXMLWAL 1x P1", b"AXMLWALL 1 P1"])
    def test_header_version_is_compared_as_a_field(self, tmp_path, header):
        seg = self._three_entries(tmp_path)
        data = seg.read_bytes()
        assert data.startswith(b"AXMLWAL 1 P1\n")
        seg.write_bytes(header + data[data.index(b"\n"):])
        wal = DurableWal(str(tmp_path), peer_id="P1")
        assert wal.last_recovery.torn and wal.last_recovery.entries == []
        wal.close()


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

    def test_rollover_drops_tombstoned_frames(self, tmp_path):
        wal = DurableWal(str(tmp_path), peer_id="P1")
        log = OperationLog("P1")
        log.attach(wal)
        log.append("T1", "update", "D", "<a/>")
        log.append("T1", "update", "D", "<b/>")
        log.append("T2", "update", "D", "<c/>")
        log.truncate("T1")
        assert segment_files(tmp_path) == ["wal-000001.seg"]
        assert [e.txn_id for e in wal.reload()] == ["T2"]
        assert segment_files(tmp_path) == ["wal-000002.seg"]
        blob = (tmp_path / "wal-000002.seg").read_bytes()
        assert blob.count(b"\nE ") == 1 and b"\nT " not in blob
        wal.close()

    def test_restart_after_rollover(self, tmp_path):
        wal = DurableWal(str(tmp_path), peer_id="P1")
        log = OperationLog("P1")
        log.attach(wal)
        for i in range(300):
            log.append(f"T{i}", "update", "D", "<a/>")
        assert segment_files(tmp_path) == ["wal-000001.seg"]
        wal.close()
        wal2 = DurableWal(str(tmp_path), peer_id="P1")  # adopting the directory reloads
        assert segment_files(tmp_path) == ["wal-000002.seg"]
        assert len(wal2.load().entries) == 300
        wal2.close()

    def test_metrics_counters(self, tmp_path):
        from repro.sim.metrics import MetricsCollector

        metrics = MetricsCollector()
        wal = DurableWal(str(tmp_path), peer_id="P1", metrics=metrics)
        log = OperationLog("P1")
        log.attach(wal)
        for _ in range(3):
            log.append("T1", "update", "D", "<a/>")
        log.truncate("T1")
        assert metrics.get("wal_appends") == 3
        assert metrics.get("wal_tombstones") == 1
        assert metrics.get("wal_bytes") > 0
        wal.close()

    def test_wal_bytes_matches_logical_accounting(self, tmp_path):
        from repro.sim.metrics import MetricsCollector
        from repro.txn.wal import entry_bytes

        metrics = MetricsCollector()
        wal = DurableWal(str(tmp_path), peer_id="P1", metrics=metrics)
        log = OperationLog("P1")
        log.attach(wal)
        log.append("T1", "update", "D", "<a/>")
        log.append("T1", "update", "D", "<bb/>")
        assert metrics.get("wal_bytes") == sum(entry_bytes(e) for e in log)
        wal.close()


class TestScratchSpace:
    def test_deterministic_relative_layout(self):
        with ScratchSpace() as a, ScratchSpace() as b:
            pa = a.path("AP1", "wal")
            pb = b.path("AP1", "wal")
            assert os.path.relpath(pa, a.root) == os.path.relpath(pb, b.root)
            assert os.path.isdir(pa) and os.path.isdir(pb)

    def test_cleanup_removes_root(self):
        scratch = ScratchSpace()
        root = scratch.root
        scratch.path("x")
        scratch.cleanup()
        assert not os.path.exists(root)
