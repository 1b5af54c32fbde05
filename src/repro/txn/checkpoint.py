"""Peer-local checkpoints: bounded-replay restart for the durable WAL.

PR 5's recovery replays the *entire* WAL history on restart, so restart
time grows linearly with how much a peer logged.  A checkpoint bounds
it: every ``checkpoint_every`` appended entries the
:class:`~repro.txn.durable_wal.DurableWal` serializes a consistent
snapshot — each hosted document plus the still-live (uncommitted)
:class:`~repro.txn.wal.LogEntry` set — into one file written
*atomically* next to the WAL segments, on the same
:class:`~repro.sim.disk.SimDisk`.  Recovery then loads the newest
valid checkpoint and replays only the segment tail written after it
(``docs/DURABILITY.md`` has the full recovery sequence).

Checkpoint file format (``ckpt-000001.ckpt``)::

    AXMLCKPT 1 <peer_id> <index> <last_seq> <tail_segment>\\n
    D <payload-bytes> <doc-name>\\n<document-xml>\\n    per hosted document
    E <payload-bytes>\\n<entry-xml>\\n                  per live log entry
    C <crc32-of-everything-above>\\n                    trailing checksum

``tail_segment`` is the WAL watermark: segments numbered >= it hold the
entries appended *after* this checkpoint and are the only ones recovery
replays.  ``E`` frames reuse the exact per-entry XML codec of the WAL
itself (:func:`repro.txn.wal.entry_to_xml`), so the two on-disk formats
cannot drift.

Atomicity and torn files
------------------------

A checkpoint is published whole with ``SimDisk.publish`` (a temp write
plus rename), so a reader only ever sees complete publishes — *or* a
file torn by a crash mid-publish on filesystems without atomic rename
semantics (which the chaos harness models explicitly with its
``tear_checkpoint`` crash flag).  Validity is all-or-nothing: the
trailing ``C`` checksum must match the CRC-32 of every byte before it,
and nothing may follow it.  A torn file therefore fails validation
deterministically regardless of *where* it was torn — important because
frame lengths embed process-global node-id serials, so a
"prefix-is-usable" rule would make recovery outcomes process-dependent.
Recovery skips invalid files and falls back to the next older
checkpoint (retention keeps the previous one plus every segment it
needs, see :meth:`CheckpointStore.retire`).
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.txn.wal import (
    LogEntry,
    entry_bytes,
    entry_from_xml,
    entry_to_xml,
    _encode_frame,
    _read_frame,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.disk import SimDisk

CKPT_MAGIC = "AXMLCKPT"
CKPT_VERSION = 1
_CKPT_NAME = re.compile(r"ckpt-\d{6}\.ckpt")


@dataclass
class Checkpoint:
    """One consistent snapshot: documents + the live WAL entry set."""

    index: int
    #: Highest entry seq ever appended when the checkpoint was taken.
    last_seq: int
    #: First WAL segment index *not* covered: recovery replays segments
    #: numbered >= this watermark on top of the checkpoint.
    tail_segment: int
    #: Document name → serialized XML at checkpoint time.
    documents: Dict[str, str] = field(default_factory=dict)
    #: The live (not-yet-truncated) entries, sorted by seq.
    entries: List[LogEntry] = field(default_factory=list)

    def logical_bytes(self) -> int:
        """Deterministic size accounting (document XML + logical entry
        payload via :func:`entry_bytes` — never raw frame lengths, which
        embed process-global serials)."""
        return sum(len(xml) for xml in self.documents.values()) + sum(
            entry_bytes(e) for e in self.entries
        )


class CheckpointStore:
    """Reads and writes the numbered checkpoint files of one WAL directory.

    The files live on *disk*, next to the WAL's segments."""

    def __init__(self, disk: "SimDisk", directory: str, peer_id: str):
        self.disk = disk
        self.directory = directory
        self.peer_id = peer_id

    # -- paths ------------------------------------------------------------

    def paths(self) -> List[str]:
        """Checkpoint file paths, oldest first; other files are not ours."""
        return [
            f"{self.directory}/{name}" for name in self.disk.names(self.directory)
            if _CKPT_NAME.fullmatch(name)
        ]

    @staticmethod
    def _index_of(path: str) -> int:
        return int(path[path.rindex("/") + 6:-5])

    def latest_index(self) -> int:
        """Highest checkpoint index on disk (valid or not); 0 when none."""
        paths = self.paths()
        return self._index_of(paths[-1]) if paths else 0

    # -- writing ----------------------------------------------------------

    def write(self, checkpoint: Checkpoint) -> str:
        """Publish *checkpoint* whole and durably; returns its path."""
        parts: List[bytes] = [
            f"{CKPT_MAGIC} {CKPT_VERSION} {self.peer_id} "
            f"{checkpoint.index} {checkpoint.last_seq} "
            f"{checkpoint.tail_segment}\n".encode("utf-8")
        ]
        for name in sorted(checkpoint.documents):
            parts.append(_encode_frame("D", checkpoint.documents[name], name))
        for entry in sorted(checkpoint.entries, key=lambda e: e.seq):
            parts.append(_encode_frame("E", entry_to_xml(entry)))
        body = b"".join(parts)
        blob = body + f"C {zlib.crc32(body) & 0xFFFFFFFF:08x}\n".encode("ascii")
        path = f"{self.directory}/ckpt-{checkpoint.index:06d}.ckpt"
        self.disk.publish(path, blob)
        return path

    # -- reading ----------------------------------------------------------

    def load_latest(self) -> Tuple[Optional[Checkpoint], int]:
        """The newest *valid* checkpoint, skipping torn files.

        Returns ``(checkpoint, torn_count)`` — *torn_count* is how many
        newer files failed validation and were skipped (0 on the happy
        path).  Read-only: torn files are left in place so a replayed
        run sees the identical directory.
        """
        torn = 0
        for path in reversed(self.paths()):
            checkpoint = self._parse(path)
            if checkpoint is not None:
                return checkpoint, torn
            torn += 1
        return None, torn

    def _parse(self, path: str) -> Optional[Checkpoint]:
        blob = self.disk.read(path)
        # Trailing checksum line: all-or-nothing validity.
        tail = blob.rfind(b"\nC ")
        if tail < 0 or not blob.endswith(b"\n"):
            return None
        body, check_line = blob[: tail + 1], blob[tail + 1:]
        expected = f"C {zlib.crc32(body) & 0xFFFFFFFF:08x}\n".encode("ascii")
        if check_line != expected:
            return None
        newline = body.find(b"\n")
        if newline < 0:
            return None
        header = body[:newline].decode("utf-8", "replace").split(" ")
        if len(header) != 6 or header[0] != CKPT_MAGIC:
            return None
        try:
            version = int(header[1])
            index, last_seq, tail_segment = (
                int(header[3]), int(header[4]), int(header[5])
            )
        except ValueError:
            return None
        if version != CKPT_VERSION:
            return None
        checkpoint = Checkpoint(
            index=index, last_seq=last_seq, tail_segment=tail_segment
        )
        pos = newline + 1
        try:
            while pos < len(body):
                frame = _read_frame(body, pos)
                if frame is None:
                    return None
                kind, name, payload, pos = frame
                if kind == "D" and name is not None:
                    checkpoint.documents[name] = payload
                elif kind == "E" and name is None:
                    checkpoint.entries.append(entry_from_xml(payload))
                else:
                    return None
        except ReproError:  # a frame that is not a well-formed entry
            return None
        checkpoint.entries.sort(key=lambda e: e.seq)
        return checkpoint

    # -- retention --------------------------------------------------------

    def retire(self, keep_from_index: int) -> List[str]:
        """Delete checkpoints older than *keep_from_index*; returns what
        was removed.  Called after a successful publish with the
        *previous* checkpoint's index, so exactly two generations remain
        — the fallback generation covers a torn newest file."""
        removed = []
        for path in self.paths():
            if self._index_of(path) < keep_from_index:
                self.disk.unlink(path)
                removed.append(path)
        return removed

    def delete_all(self) -> None:
        """Drop every checkpoint (restart compaction starts fresh)."""
        for path in self.paths():
            self.disk.unlink(path)

    # -- chaos hooks ------------------------------------------------------

    def tear_newest(self) -> Optional[str]:
        """Truncate the newest checkpoint file mid-write (chaos model of
        a crash landing inside the publish).  Deterministic: cuts the
        file to half its byte length.  Returns the torn path, or None
        when there is nothing to tear."""
        paths = self.paths()
        if not paths:
            return None
        self.disk.tear(paths[-1])
        return paths[-1]
