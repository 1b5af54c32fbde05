"""Baselines the paper argues against, implemented for comparison.

* :mod:`repro.baselines.static_compensation` — pre-defined compensation
  handlers (the state of the art §3.1 says is infeasible for AXML);
* :mod:`repro.baselines.snapshot_rollback` — traditional whole-document
  undo via snapshots;
* :mod:`repro.baselines.two_phase_commit` — blocking atomic commit.

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
from repro.baselines.two_phase_commit import TwoPhaseCoordinator, TwoPhaseOutcome
from repro.baselines.lock_manager import LockConflict, LockManager, LockMode

__all__ = [
    "StaticCompensator",
    "StaticHandler",
    "CoverageReport",
    "SnapshotRollback",
    "TwoPhaseCoordinator",
    "TwoPhaseOutcome",
    "LockConflict",
    "LockManager",
    "LockMode",
]
