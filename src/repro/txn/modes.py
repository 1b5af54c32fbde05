"""Typed durability knobs.

:class:`DurabilityPolicy` is the one way to give a peer a durable WAL
(``AXMLPeer(durability=DurabilityPolicy(directory=...))``; ``None`` keeps
the log memory-only) and carries the write-path knobs: group-commit
batching (``wal_batch``) and checkpointing (``checkpoint_every``) — see
``docs/DURABILITY.md``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DurabilityPolicy:
    """Every knob of a peer's durable WAL, in one frozen value.

    The defaults are the plain write path: one physical flush per frame
    (``wal_batch=1``), no checkpoints.
    """

    #: The directory on the network's :class:`~repro.sim.disk.SimDisk`
    #: that holds the WAL segments and checkpoints (a name, not a path
    #: on the real file system).
    directory: str
    #: Frames buffered per group-commit batch; 1 = flush every frame.
    wal_batch: int = 1
    #: Take a checkpoint every N appended entries; 0 disables.
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if not self.directory:
            raise ValueError("a DurabilityPolicy needs a WAL directory")
        if self.wal_batch < 1:
            raise ValueError("wal_batch must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
