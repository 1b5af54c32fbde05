"""Typed durability and rejoin knobs.

:class:`DurabilityPolicy` is the one way to give a peer an on-disk WAL
(``AXMLPeer(durability=DurabilityPolicy(directory=...))``; ``None`` keeps
the log memory-only) and carries the write-path knobs: group-commit
batching (``wal_batch``, ``flush_interval``, ``flush_on_prepare``) and
checkpointing (``checkpoint_every``) — see ``docs/DURABILITY.md``.
:class:`RejoinMode` is what :meth:`AXMLPeer.rejoin` does with the
shares it recovers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class RejoinMode(enum.Enum):
    """What :meth:`AXMLPeer.rejoin` does with recovered shares."""

    #: Compensate every recovered share immediately (the caller knows
    #: the rest of the system already aborted around the dead peer).
    COMPENSATE = "compensate"
    #: Rebuild an ``ACTIVE`` in-doubt context per recovered transaction
    #: and wait for ``resolve_in_doubt`` — required after a crash.
    IN_DOUBT = "in_doubt"


@dataclass(frozen=True)
class DurabilityPolicy:
    """Every knob of a peer's durable WAL, in one frozen value.

    The defaults are the plain write path: one physical flush per frame
    (``wal_batch=1``), no checkpoints.
    """

    #: Where the WAL segments and checkpoints live.
    directory: str
    #: Frames buffered per group-commit batch; 1 = flush every frame.
    wal_batch: int = 1
    #: Virtual-time flush quantum for a partially-filled batch (needs
    #: an event queue; ``None`` = no timer, barriers/batch-size only).
    flush_interval: Optional[float] = 0.05
    #: Barrier-flush before protocol-critical message sends (share
    #: hand-off, invocation requests) so a durable entry can never be
    #: deferred past a message another peer acts on.
    flush_on_prepare: bool = True
    #: Take a checkpoint every N appended entries; 0 disables.
    checkpoint_every: int = 0
    #: Segment rollover threshold (ignored while checkpointing is on —
    #: checkpoints subsume rollover compaction).
    segment_max_frames: int = 256

    def __post_init__(self) -> None:
        if not self.directory:
            raise ValueError("a DurabilityPolicy needs a WAL directory")
        if self.wal_batch < 1:
            raise ValueError("wal_batch must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.flush_interval is not None and self.flush_interval <= 0:
            raise ValueError("flush_interval must be positive (or None)")
