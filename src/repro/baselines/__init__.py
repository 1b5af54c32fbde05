"""Baselines the paper argues against, implemented for comparison.

* :mod:`repro.baselines.static_compensation` — pre-defined compensation
  handlers (the state of the art §3.1 says is infeasible for AXML);
* :mod:`repro.baselines.snapshot_rollback` — traditional whole-document
  undo via snapshots;
* :mod:`repro.baselines.lock_manager` — pessimistic document locks.

The §3.3 baseline — disconnection handling without chaining (detection
only by the direct parent, no reuse) — is a flag, not a module:
``Cluster.from_topology(..., chaining=False)``.
"""

from repro.baselines.static_compensation import (
    StaticCompensator,
    StaticHandler,
    CoverageReport,
)
from repro.baselines.snapshot_rollback import SnapshotRollback
from repro.baselines.lock_manager import LockConflict, LockManager, LockMode

__all__ = [
    "StaticCompensator",
    "StaticHandler",
    "CoverageReport",
    "SnapshotRollback",
    "LockConflict",
    "LockManager",
    "LockMode",
]
