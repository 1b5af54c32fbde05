"""The simulated disk: what a crash keeps is decided here.

One :class:`SimDisk` per :class:`~repro.p2p.network.SimNetwork` holds
every durable file of the run — WAL segments and checkpoints — keyed by
``"<directory>/<name>"``.  A file is a *synced prefix* plus a *volatile
tail*: :meth:`SimDisk.append` grows the tail, :meth:`SimDisk.sync` makes
the whole file durable, and :meth:`SimDisk.crash` cuts every file of a
directory back to its synced prefix.  So a writer's crash semantics
follow from where it syncs, and no writer keeps a rule of its own.

Nothing reaches the real file system: two runs with the same seed see
the same bytes, and a run leaves nothing behind.  Directory syncs and
the partial power-loss states (any prefix of the unsynced operations)
are not modelled yet: a file's existence and a :meth:`SimDisk.publish`
are durable at once.
"""

from __future__ import annotations

from typing import Dict, List


class _File:
    __slots__ = ("data", "synced")

    def __init__(self, data: bytes = b"", synced: int = 0):
        self.data = bytearray(data)
        #: Length of the durable prefix of ``data``.
        self.synced = synced


class SimDisk:
    """Every durable file of one simulated network, in memory."""

    def __init__(self):
        self._files: Dict[str, _File] = {}

    def append(self, path: str, data: bytes) -> None:
        """Add *data* to the volatile tail of *path* (created if missing)."""
        file = self._files.get(path)
        if file is None:
            file = self._files[path] = _File()
        file.data += data

    def sync(self, path: str) -> None:
        """Make every byte of *path* durable."""
        file = self._files[path]
        file.synced = len(file.data)

    def publish(self, path: str, data: bytes) -> None:
        """Replace *path* whole and durably (a temp write plus rename)."""
        self._files[path] = _File(data, len(data))

    def read(self, path: str) -> bytes:
        """What the live process sees: synced prefix and tail."""
        return bytes(self._files[path].data)

    def unlink(self, path: str) -> None:
        del self._files[path]

    def names(self, directory: str) -> List[str]:
        """Sorted names of the files directly in *directory*."""
        prefix = directory + "/"
        return sorted(
            path[len(prefix):] for path in self._files
            if path.startswith(prefix) and "/" not in path[len(prefix):]
        )

    def crash(self, directory: str) -> None:
        """Process death on *directory*'s owner: every file in it keeps
        only its synced prefix."""
        for name in self.names(directory):
            file = self._files[f"{directory}/{name}"]
            del file.data[file.synced:]

    def tear(self, path: str) -> None:
        """A crash inside a write of *path*: the file keeps half its bytes."""
        file = self._files[path]
        del file.data[len(file.data) // 2:]
        file.synced = min(file.synced, len(file.data))
