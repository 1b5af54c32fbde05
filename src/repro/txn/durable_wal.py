"""Crash-durable write-ahead log for the §3.1 operation log.

The paper's operation log exists so a *recovering* peer can construct
compensations after a failure, which only works if the log outlives the
process.  :class:`DurableWal` is the disk backend of one
:class:`~repro.txn.wal.OperationLog`
(:meth:`~repro.txn.wal.OperationLog.attach`): frames in, frames out.
Every appended :class:`~repro.txn.wal.LogEntry` goes to the network's
:class:`~repro.sim.disk.SimDisk` as a self-delimiting frame (the entry's
own XML encoding, see
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

Group commit (``wal_batch`` > 1): appended frames sit in the segment's
volatile tail and become durable in **one sync** when the batch fills,
when the virtual-time flush quantum (:data:`FLUSH_INTERVAL`) expires, or
when a **barrier** forces them: tombstone frames always sync first (a
commit/compensation record must never precede its entries), and peers
flush before protocol-critical message sends (the write-ahead barrier —
see ``docs/DURABILITY.md``).  Unsynced frames are volatile: a crash
(:meth:`DurableWal.crash`) cuts them off the disk, and the crashing peer
undoes their document effects so the durable prefix and the durable
store agree.

Checkpoints (``checkpoint_every`` > 0): every N appended entries the
WAL publishes a :class:`~repro.txn.checkpoint.Checkpoint` — hosted
documents + the live entry set — and starts a fresh segment, so restart
replays only the segment tail written after the newest valid
checkpoint.  Retention keeps two checkpoint generations: segments
covered by the *previous* checkpoint are deleted only when the *next*
one publishes, so a checkpoint file torn by a crash mid-publish still
leaves a complete fallback (older checkpoint + longer tail).

Without those two knobs (``wal_batch=1``, ``checkpoint_every=0``) every
append is one synced frame and the segments grow until a restart:
:meth:`DurableWal.reload` is then the one compaction, rewriting the live
entries into a fresh segment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.txn.checkpoint import Checkpoint, CheckpointStore
from repro.txn.modes import DurabilityPolicy
from repro.txn.wal import (
    LogEntry,
    OperationLog,
    entry_bytes,
    entry_from_xml,
    entry_to_xml,
    _encode_frame,
    _read_frame,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.disk import SimDisk
    from repro.sim.kernel import EventQueue
    from repro.sim.metrics import MetricsCollector

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

    Its segments and checkpoints live on *disk* under
    ``policy.directory``.

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
        policy: DurabilityPolicy,
        peer_id: str,
        disk: "SimDisk",
        metrics: "MetricsCollector",
        events: "EventQueue",
        document_source: Callable[[], Dict[str, str]],
    ):
        #: The peer's durability settings (directory, ``wal_batch``,
        #: ``checkpoint_every``), validated where they are spelled.
        self.policy = policy
        self.peer_id = peer_id
        self.disk = disk
        self.metrics = metrics
        self._document_source = document_source
        #: The log this backend persists (set by ``OperationLog.attach``)
        #: — the owner of the live entry set compaction and checkpoints
        #: read.
        self.log: Optional[OperationLog] = None
        #: Entries whose frames sit in the segment's volatile tail.
        self._unsynced: List[LogEntry] = []
        #: Highest entry seq ever appended (checkpoint header bookkeeping).
        self._last_seq = 0
        #: Highest entry seq durably on disk — the write-ahead high-water
        #: mark WAL shipping checks before an entry may leave the peer
        #: (unsynced group-commit frames are *not* durable yet).
        self.last_durable_seq = 0
        self._appends_since_ckpt = 0
        #: This WAL's checkpoints, on the same disk and directory.
        self.checkpoints = CheckpointStore(disk, policy.directory, peer_id)
        self._ckpt_index = 0
        #: Tail watermark of the previously published checkpoint: the
        #: segments below it become deletable at the *next* publish.
        self._prev_tail = 0
        #: What the last :meth:`reload` recovered (a :class:`WalScan`).
        self.last_recovery: Optional[WalScan] = None
        self._timer = None
        if policy.wal_batch > 1:
            from repro.sim.kernel import OneShotTimer

            self._timer = OneShotTimer(events, self.flush)
        self._segment = ""
        if self._segment_paths() or self.checkpoints.paths():
            # Adopt an existing directory (restart): scan + truncate tail.
            self.reload()
        else:
            self._open_segment(1)

    # -- paths ------------------------------------------------------------

    @staticmethod
    def _segment_index_of(path: str) -> int:
        return int(path[path.rindex("/") + 5:-4])

    def _segment_paths(self) -> List[str]:
        """This WAL's segments, oldest first; other files are not ours."""
        directory = self.policy.directory
        return [
            f"{directory}/{name}" for name in self.disk.names(directory)
            if _SEGMENT_NAME.fullmatch(name)
        ]

    def _open_segment(self, index: int) -> None:
        self._segment = f"{self.policy.directory}/wal-{index:06d}.seg"
        self._write_frames([f"{MAGIC} {VERSION} {self.peer_id}\n".encode("utf-8")])

    # -- the log's mutations -----------------------------------------------

    def on_append(self, entry: LogEntry) -> None:
        self._last_seq = max(self._last_seq, entry.seq)
        self.metrics.incr("wal_appends")
        self.metrics.incr("wal_bytes", entry_bytes(entry))
        self._appends_since_ckpt += 1
        self.disk.append(self._segment, _encode_frame("E", entry_to_xml(entry)))
        self._unsynced.append(entry)
        if self.policy.wal_batch <= 1:
            self._sync_unsynced()
            self._after_write()
        elif len(self._unsynced) >= self.policy.wal_batch:
            self.flush()
        elif self._timer is not None:
            self._timer.arm(FLUSH_INTERVAL)

    def on_truncate(self, txn_id: str) -> None:
        # Barrier: a tombstone must never be durable before the entries
        # it settles, so any unsynced batch syncs first.
        self._barrier()
        self._write_frames([_encode_frame("T", txn_id)])
        self.metrics.incr("wal_tombstones")
        self._after_write()

    # -- group commit ------------------------------------------------------

    def flush(self) -> int:
        """Sync the unsynced batch in one go; returns how many frames
        became durable (0 = nothing unsynced).  This is the write-ahead
        barrier peers call before message sends."""
        wrote = self._barrier()
        if wrote:
            self._after_write()
        return wrote

    def _barrier(self) -> int:
        wrote = self._sync_unsynced()
        if wrote:
            self.metrics.incr("wal_batch_flushes")
        return wrote

    def _sync_unsynced(self) -> int:
        wrote = len(self._unsynced)
        if wrote:
            self.disk.sync(self._segment)
            self.last_durable_seq = max(
                self.last_durable_seq, max(e.seq for e in self._unsynced)
            )
            self._forget_unsynced()
        return wrote

    def _forget_unsynced(self) -> List[LogEntry]:
        dropped, self._unsynced = self._unsynced, []
        if self._timer is not None:
            self._timer.cancel()
        return dropped

    def crash(self) -> List[LogEntry]:
        """Process death: the disk keeps this WAL's files up to their
        last sync.

        Returns the entries whose frames the crash cut off, so the
        caller can undo their document effects — with write-ahead
        batching, an effect whose log entry never became durable must
        not survive the crash either (the restarted peer could not
        compensate it).
        """
        dropped = self._forget_unsynced()
        self.disk.crash(self.policy.directory)
        if dropped:
            self.metrics.incr("wal_unflushed_discarded", len(dropped))
        return dropped

    # -- framing ----------------------------------------------------------

    def _write_frames(self, frames: Sequence[bytes]) -> None:
        """Append *frames* to the current segment and sync them together."""
        self.disk.append(self._segment, b"".join(frames))
        self.disk.sync(self._segment)

    def _after_write(self) -> None:
        """Checkpoint policy, consulted after every physical write."""
        if 0 < self.policy.checkpoint_every <= self._appends_since_ckpt:
            self.take_checkpoint()

    def _live_entries(self) -> List[LogEntry]:
        return list(self.log) if self.log is not None else []

    def _compact(self, entries: Sequence[LogEntry]) -> None:
        """Rewrite *entries* into a fresh segment numbered past every
        existing one, then unlink the older segments."""
        old_paths = self._segment_paths()
        self._open_segment(
            self._segment_index_of(old_paths[-1]) + 1 if old_paths else 1
        )
        self._write_frames(
            [_encode_frame("E", entry_to_xml(entry)) for entry in entries]
        )
        for path in old_paths:
            self.disk.unlink(path)

    # -- checkpoints -------------------------------------------------------

    def take_checkpoint(self) -> Optional[Checkpoint]:
        """Publish a checkpoint now and start a fresh tail segment.

        Syncs any unsynced batch first (a checkpoint covers only what
        is durable), then writes documents + the live entry set through
        :class:`~repro.txn.checkpoint.CheckpointStore` (durable publish,
        trailing checksum).  Retention deletes the segments covered by
        the *previous* checkpoint and retires checkpoints older than it,
        keeping exactly two generations on disk.
        """
        if self.policy.checkpoint_every <= 0:
            return None
        self._barrier()
        documents = dict(self._document_source())
        tail_segment = self._segment_index_of(self._segment) + 1
        self._open_segment(tail_segment)
        checkpoint = Checkpoint(
            index=self._ckpt_index + 1,
            last_seq=self._last_seq,
            tail_segment=tail_segment,
            documents=documents,
            entries=self._live_entries(),
        )
        self.checkpoints.write(checkpoint)
        for path in self._segment_paths():
            if self._segment_index_of(path) < self._prev_tail:
                self.disk.unlink(path)
        self.checkpoints.retire(checkpoint.index - 1)
        self._ckpt_index = checkpoint.index
        self._prev_tail = checkpoint.tail_segment
        self._appends_since_ckpt = 0
        self.metrics.incr("checkpoints")
        self.metrics.incr("checkpoint_bytes", checkpoint.logical_bytes())
        return checkpoint

    # -- scanning ---------------------------------------------------------

    def load(self) -> WalScan:
        """Read-only scan: the live entries on disk, sorted by seq.

        Bases the merge on the newest valid checkpoint, if any, and
        replays only segments at or past its ``tail_segment`` watermark
        (torn checkpoint files are skipped, falling back to the previous
        generation).  Tail tombstones apply to checkpointed entries too.
        The scan reads what the live process sees, unsynced group-commit
        frames included — what the WAL *would* recover once they sync —
        which is how the oracle accounts for the group-commit window
        without mutating anything.  After a crash the disk holds only
        the synced prefix, so the restart (:meth:`reload`) reads that.
        """
        by_seq: Dict[int, LogEntry] = {}
        checkpoint, ckpt_torn = self.checkpoints.load_latest()
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
        blob = self.disk.read(path)
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
        # A reload models a restart: the previous process died with
        # whatever it had not synced.
        self.crash()
        scan = self.load()
        if scan.torn:
            self.metrics.incr("wal_torn_tails")
        if scan.checkpoint_torn:
            self.metrics.incr("checkpoints_torn", scan.checkpoint_torn)
        self.metrics.incr("recovery_replay_entries", scan.replayed)
        seqs = [e.seq for e in scan.entries]
        self._last_seq = max(seqs, default=self._last_seq)
        self.last_durable_seq = max(seqs, default=0)
        self._ckpt_index = max(self._ckpt_index, self.checkpoints.latest_index())
        self.checkpoints.delete_all()
        self._prev_tail = 0
        self._appends_since_ckpt = 0
        self._compact(scan.entries)
        self.metrics.incr("wal_reloads")
        self.last_recovery = scan
        return list(scan.entries)
