"""Crash-durable write-ahead log for the §3.1 operation log.

The paper's operation log exists so a *recovering* peer can construct
compensations after a failure, which only works if the log outlives the
process.  :class:`DurableWal` is the disk backend of one
:class:`~repro.txn.wal.OperationLog`
(:meth:`~repro.txn.wal.OperationLog.attach`): frames in, frames out.
Every appended :class:`~repro.txn.wal.LogEntry` is streamed to disk as a
self-delimiting frame (the entry's own XML encoding, see
:func:`repro.txn.wal.entry_to_xml`), and every commit/abort-time
``truncate`` is recorded as a tombstone frame.  The live entry set
itself stays with the log: the backend reads it from there when it
compacts or checkpoints, the way it reads documents through
``document_source``.

Segment format (``wal-000001.seg``, ``wal-000002.seg``, …)::

    AXMLWAL 1 <peer_id>\\n          header line
    E <payload-bytes>\\n<xml>\\n     one log entry (entry_to_xml text)
    T <payload-bytes>\\n<txn-id>\\n  tombstone: txn's entries truncated

Torn-tail rule: a scan reads frames in order and stops at the first
frame whose header is malformed, whose payload is shorter than its
declared length, or whose entry ``seq`` is not strictly greater than the
previous entry's in the same segment.  Everything before that point is
the durable prefix; the tail is discarded (and physically truncated by
:meth:`reload`, the restart path).  Because a frame is only appended
after the in-memory log accepted the entry, the durable prefix is always
a consistent prefix of what the peer had applied.

Group commit (``batch_size`` > 1): appends accumulate in a bounded
in-memory buffer and reach disk as **one multi-frame write** when the
buffer fills, when the virtual-time flush quantum (:data:`FLUSH_INTERVAL`)
expires, or when a **barrier** forces them out: tombstone frames always
flush first (a commit/compensation record must never precede its
entries), and peers flush before protocol-critical message sends (the
write-ahead barrier — see ``docs/DURABILITY.md``).  Buffered
frames are volatile: a crash discards them (:meth:`discard_unflushed`),
and the crashing peer undoes their document effects so the durable
prefix and the durable store agree.

Checkpoints (``checkpoint_every`` > 0): every N appended entries the
WAL publishes a :class:`~repro.txn.checkpoint.Checkpoint` — hosted
documents + the live entry set — and starts a fresh segment, so restart
replays only the segment tail written after the newest valid
checkpoint.  Retention keeps two checkpoint generations: segments
covered by the *previous* checkpoint are deleted only when the *next*
one publishes, so a checkpoint file torn by a crash mid-publish still
leaves a complete fallback (older checkpoint + longer tail).

Without those two knobs (``batch_size=1``, ``checkpoint_every=0``) every
append is one flushed frame and the segments grow until a restart:
:meth:`DurableWal.reload` is then the one compaction, rewriting the live
entries into a fresh segment.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.txn.checkpoint import Checkpoint, CheckpointStore
from repro.txn.wal import (
    LogEntry,
    OperationLog,
    entry_bytes,
    entry_from_xml,
    entry_to_xml,
    _encode_frame,
    _read_frame,
)

MAGIC = "AXMLWAL"
VERSION = 1
_SEGMENT_NAME = re.compile(r"wal-\d{6}\.seg")
#: Virtual seconds a partial group-commit batch waits for the flush timer.
FLUSH_INTERVAL = 0.05


@dataclass
class WalScan:
    """Result of a read-only pass over the WAL directory."""

    entries: List[LogEntry] = field(default_factory=list)
    #: True when a torn tail (incomplete or seq-regressing frame) was
    #: detected and discarded during the scan.
    torn: bool = False
    #: Entry frames replayed from segments — with a checkpoint, only the
    #: tail written after it; without, every entry frame on disk.
    replayed: int = 0
    #: Newer checkpoint files that failed validation and were skipped.
    checkpoint_torn: int = 0
    #: Document snapshots carried by the checkpoint (name → XML).
    documents: Dict[str, str] = field(default_factory=dict)


class DurableWal:
    """Append-only segmented WAL: the disk backend of one peer's log.

    ``metrics`` (a :class:`repro.sim.metrics.MetricsCollector`) receives
    ``wal_appends`` / ``wal_bytes`` / ``wal_tombstones`` counters —
    plus, when the respective features
    are on, ``wal_batch_flushes`` / ``wal_unflushed_discarded`` /
    ``checkpoints`` / ``checkpoint_bytes`` / ``checkpoints_torn`` and
    ``recovery_replay_entries``.  Byte counters track *logical* payload
    (:func:`repro.txn.wal.entry_bytes`, document XML lengths), never
    frame lengths — frame lengths embed process-global serials and would
    make summaries non-deterministic.
    """

    def __init__(
        self,
        directory: str,
        peer_id: str = "",
        metrics=None,
        batch_size: int = 1,
        events=None,
        checkpoint_every: int = 0,
        document_source: Optional[Callable[[], Dict[str, str]]] = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.directory = directory
        self.peer_id = peer_id
        self.metrics = metrics
        self.batch_size = batch_size
        self.checkpoint_every = checkpoint_every
        self._document_source = document_source
        os.makedirs(directory, exist_ok=True)
        #: The log this backend persists (set by ``OperationLog.attach``)
        #: — the owner of the live entry set compaction and checkpoints
        #: read.
        self.log: Optional[OperationLog] = None
        #: Group-commit buffer: entries accepted but not yet on disk,
        #: each with its encoded frame.
        self._pending: List[Tuple[LogEntry, bytes]] = []
        #: Highest entry seq ever appended (checkpoint header bookkeeping).
        self._last_seq = 0
        #: Highest entry seq durably on disk — the write-ahead high-water
        #: mark WAL shipping checks before an entry may leave the peer
        #: (buffered group-commit frames are *not* durable yet).
        self.last_durable_seq = 0
        self._appends_since_ckpt = 0
        self._ckpt_store: Optional[CheckpointStore] = (
            CheckpointStore(directory, peer_id) if checkpoint_every > 0 else None
        )
        self._ckpt_index = 0
        #: Tail watermark of the previously published checkpoint: the
        #: segments below it become deletable at the *next* publish.
        self._prev_tail = 0
        #: What the last :meth:`reload` recovered (a :class:`WalScan`).
        self.last_recovery: Optional[WalScan] = None
        self._timer = None
        if events is not None and batch_size > 1:
            from repro.sim.kernel import OneShotTimer

            self._timer = OneShotTimer(events, self.flush)
        self._fh = None
        self._segment_index = 0
        existing = self._segment_paths()
        if existing or (self._ckpt_store and self._ckpt_store.paths()):
            # Adopt an existing directory (restart): scan + truncate tail.
            self.reload()
        else:
            self._open_segment(1)

    # -- paths ------------------------------------------------------------

    @staticmethod
    def _segment_index_of(path: str) -> int:
        return int(os.path.basename(path)[4:-4])

    def _segment_paths(self) -> List[str]:
        """This WAL's segments, oldest first; other files are not ours."""
        try:
            names = sorted(
                n for n in os.listdir(self.directory)
                if _SEGMENT_NAME.fullmatch(n)
            )
        except FileNotFoundError:
            return []
        return [os.path.join(self.directory, n) for n in names]

    def _open_segment(self, index: int) -> None:
        self._segment_index = index
        path = os.path.join(self.directory, f"wal-{index:06d}.seg")
        self._fh = open(path, "ab")
        if self._fh.tell() == 0:
            self._fh.write(f"{MAGIC} {VERSION} {self.peer_id}\n".encode("utf-8"))
            self._fh.flush()

    def _incr(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.incr(name, amount)

    # -- the log's mutations -----------------------------------------------

    def on_append(self, entry: LogEntry) -> None:
        self._last_seq = max(self._last_seq, entry.seq)
        self._incr("wal_appends")
        self._incr("wal_bytes", entry_bytes(entry))
        self._appends_since_ckpt += 1
        self._pending.append((entry, _encode_frame("E", entry_to_xml(entry))))
        if self.batch_size <= 1:
            self._flush_pending()
            self._after_write()
        elif len(self._pending) >= self.batch_size:
            self.flush()
        elif self._timer is not None:
            self._timer.arm(FLUSH_INTERVAL)

    def on_truncate(self, txn_id: str) -> None:
        # Barrier: a tombstone must never reach disk before the entries
        # it settles, so any buffered batch flushes first.
        self._barrier()
        self._write_frames([_encode_frame("T", txn_id)])
        self._incr("wal_tombstones")
        self._after_write()

    # -- group commit ------------------------------------------------------

    def flush(self) -> int:
        """Write the buffered batch as one multi-frame write; returns
        how many frames were flushed (0 = nothing pending).  This is the
        write-ahead barrier peers call before message sends."""
        wrote = self._barrier()
        if wrote:
            self._after_write()
        return wrote

    def _barrier(self) -> int:
        wrote = self._flush_pending()
        if wrote:
            self._incr("wal_batch_flushes")
        return wrote

    def _flush_pending(self) -> int:
        wrote = len(self._pending)
        if wrote:
            self._write_frames([frame for _, frame in self._pending])
            self.last_durable_seq = max(
                self.last_durable_seq, max(e.seq for e, _ in self._pending)
            )
            self._drop_pending()
        return wrote

    def _drop_pending(self) -> None:
        self._pending.clear()
        if self._timer is not None:
            self._timer.cancel()

    def pending_entries(self) -> List[LogEntry]:
        """Buffered-but-unflushed entries (read-only view)."""
        return [entry for entry, _ in self._pending]

    def discard_unflushed(self) -> List[LogEntry]:
        """Crash path: drop the buffered batch *without* writing it.

        Returns the discarded entries so the caller can undo their
        document effects — with write-ahead batching, an effect whose
        log entry never reached disk must not survive the crash either
        (the restarted peer could not compensate it).
        """
        dropped = self.pending_entries()
        self._drop_pending()
        if dropped:
            self._incr("wal_unflushed_discarded", len(dropped))
        return dropped

    # -- framing ----------------------------------------------------------

    def _write_frames(self, frames: Sequence[bytes]) -> None:
        """The one physical write: *frames* reach disk together."""
        if self._fh is None:
            raise RuntimeError("DurableWal is closed")
        self._fh.write(b"".join(frames))
        self._fh.flush()

    def _after_write(self) -> None:
        """Checkpoint policy, consulted after every physical write."""
        if 0 < self.checkpoint_every <= self._appends_since_ckpt:
            self.take_checkpoint()

    def _live_entries(self) -> List[LogEntry]:
        return list(self.log) if self.log is not None else []

    def _compact(self, entries: Sequence[LogEntry]) -> None:
        """Rewrite *entries* into a fresh segment numbered past every
        existing one, then unlink the older segments."""
        old_paths = self._segment_paths()
        if self._fh is not None:
            self._fh.close()
        self._open_segment(
            self._segment_index_of(old_paths[-1]) + 1 if old_paths else 1
        )
        self._write_frames(
            [_encode_frame("E", entry_to_xml(entry)) for entry in entries]
        )
        for path in old_paths:
            os.unlink(path)

    # -- checkpoints -------------------------------------------------------

    def take_checkpoint(self) -> Optional[Checkpoint]:
        """Publish a checkpoint now and start a fresh tail segment.

        Flushes any buffered batch first (a checkpoint covers only what
        is durable), then writes documents + the live entry set through
        :class:`~repro.txn.checkpoint.CheckpointStore` (atomic publish,
        trailing checksum).  Retention deletes the segments covered by
        the *previous* checkpoint and retires checkpoints older than it,
        keeping exactly two generations on disk.
        """
        if self._ckpt_store is None:
            return None
        self._barrier()
        documents = (
            dict(self._document_source())
            if self._document_source is not None else {}
        )
        self._fh.close()
        self._open_segment(self._segment_index + 1)
        checkpoint = Checkpoint(
            index=self._ckpt_index + 1,
            last_seq=self._last_seq,
            tail_segment=self._segment_index,
            documents=documents,
            entries=self._live_entries(),
        )
        self._ckpt_store.write(checkpoint)
        for path in self._segment_paths():
            if self._segment_index_of(path) < self._prev_tail:
                os.unlink(path)
        self._ckpt_store.retire(checkpoint.index - 1)
        self._ckpt_index = checkpoint.index
        self._prev_tail = checkpoint.tail_segment
        self._appends_since_ckpt = 0
        self._incr("checkpoints")
        self._incr("checkpoint_bytes", checkpoint.logical_bytes())
        return checkpoint

    # -- scanning ---------------------------------------------------------

    def load(self, include_pending: bool = False) -> WalScan:
        """Read-only scan: durable live entries, sorted by seq.

        With checkpointing, bases the merge on the newest valid
        checkpoint and replays only segments at or past its
        ``tail_segment`` watermark (torn checkpoint files are skipped,
        falling back to the previous generation).  Tail tombstones apply
        to checkpointed entries too.  ``include_pending`` overlays the
        buffered-but-unflushed batch — what the WAL *would* recover if
        the batch were flushed — which is how the oracle accounts for
        the group-commit window without mutating anything.
        """
        by_seq: Dict[int, LogEntry] = {}
        checkpoint: Optional[Checkpoint] = None
        ckpt_torn = 0
        if self._ckpt_store is not None:
            checkpoint, ckpt_torn = self._ckpt_store.load_latest()
        if checkpoint is not None:
            for entry in checkpoint.entries:
                by_seq[entry.seq] = entry
        floor = checkpoint.tail_segment if checkpoint is not None else 0
        torn = False
        replayed = 0
        for path in self._segment_paths():
            if self._segment_index_of(path) < floor:
                continue
            seg_torn, seg_entries = self._scan_segment(path, by_seq)
            torn = torn or seg_torn
            replayed += seg_entries
        if include_pending:
            for entry, _ in self._pending:
                by_seq[entry.seq] = entry
        live = [e for _, e in sorted(by_seq.items())]
        return WalScan(
            entries=live,
            torn=torn,
            replayed=replayed,
            checkpoint_torn=ckpt_torn,
            documents=dict(checkpoint.documents) if checkpoint is not None else {},
        )

    def _scan_segment(self, path, by_seq):
        """Scan one segment into *by_seq*.

        Tombstones apply **in stream order**: a ``T`` frame suppresses
        only the entries written before it.  A transaction that aborts
        (tombstone) and is then *retried on the same peer* appends fresh
        entries after the tombstone — they are live, and a set-based
        "dead txn id" scan would wrongly drop them (losing the retry's
        share at restart).

        Returns ``(torn, entry_frames)``.
        """
        with open(path, "rb") as fh:
            blob = fh.read()
        newline = blob.find(b"\n")
        header = (
            blob[:newline].decode("utf-8", "replace").split(" ")
            if newline >= 0 else []
        )
        if header[:2] != [MAGIC, str(VERSION)]:
            return True, 0
        pos = newline + 1
        entry_frames = 0
        last_seq = 0
        while pos < len(blob):
            frame = _read_frame(blob, pos)
            if frame is None:
                return True, entry_frames
            kind, name, payload, pos = frame
            if kind == "E" and name is None:
                try:
                    entry = entry_from_xml(payload)
                except ReproError:
                    return True, entry_frames
                if entry.seq <= last_seq:
                    # Seq regression: a stale tail from before a crash.
                    return True, entry_frames
                last_seq = entry.seq
                by_seq[entry.seq] = entry
                entry_frames += 1
            elif kind == "T" and name is None:
                for seq in [s for s, e in by_seq.items() if e.txn_id == payload]:
                    del by_seq[seq]
            else:
                return True, entry_frames
        return False, entry_frames

    # -- restart ----------------------------------------------------------

    def reload(self) -> List[LogEntry]:
        """Restart path: recover from checkpoint + tail (or a full scan
        without checkpoints), discard any torn tail, and compact the
        durable live entries into a fresh segment.  Returns the live
        entries (sorted by seq) for the attached log to adopt;
        the full scan — including recovered document snapshots — stays
        available as :attr:`last_recovery`.

        Always starting a new segment (rather than appending to the old
        tail) keeps the within-segment seq-monotonicity invariant even
        when the restarted peer's seq counter restarts below the old
        tail's highest seq.  Checkpoint files are dropped after the
        compaction (their watermarks point at deleted segments); the
        index keeps counting monotonically.
        """
        # A reload models a restart: the buffered batch is volatile.
        self._drop_pending()
        scan = self.load()
        if scan.torn:
            self._incr("wal_torn_tails")
        if scan.checkpoint_torn:
            self._incr("checkpoints_torn", scan.checkpoint_torn)
        self._incr("recovery_replay_entries", scan.replayed)
        seqs = [e.seq for e in scan.entries]
        self._last_seq = max(seqs, default=self._last_seq)
        self.last_durable_seq = max(seqs, default=0)
        if self._ckpt_store is not None:
            self._ckpt_index = max(
                self._ckpt_index, self._ckpt_store.latest_index()
            )
            self._ckpt_store.delete_all()
        self._prev_tail = 0
        self._appends_since_ckpt = 0
        self._compact(scan.entries)
        self._incr("wal_reloads")
        self.last_recovery = scan
        return list(scan.entries)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        if self._fh is not None:
            # Graceful shutdown persists the buffered batch (a crash
            # goes through discard_unflushed instead).
            self._flush_pending()
            self._fh.close()
            self._fh = None
        if self._timer is not None:
            self._timer.cancel()

    def __enter__(self) -> "DurableWal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
