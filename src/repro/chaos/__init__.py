"""``repro.chaos`` — deterministic chaos harness + atomicity oracle.

Seed-driven fault schedules (:mod:`~repro.chaos.planner`) overlaid on
concurrent scheduler workloads (:mod:`~repro.chaos.runner`), verified
all-or-nothing by the :class:`~repro.chaos.oracle.AtomicityOracle` and
minimized into replayable repro files (:mod:`~repro.chaos.shrink`).

Entry points::

    from repro.chaos import ChaosConfig, run_chaos
    result = run_chaos(ChaosConfig(seed=7, txns=20, fault_rate=0.2))
    assert result.ok, result.violations

or from the shell: ``python -m repro chaos --seed 7 --txns 20
--fault-rate 0.2``.  See ``docs/CHAOS.md`` for the fault model, the
oracle's exact predicates and the repro-file format.
"""

from repro.chaos.oracle import (
    AtomicityOracle,
    ExpectedEffect,
    VIOLATION_KINDS,
    Violation,
)
from repro.chaos.planner import (
    CHAOS_FAULT,
    FaultEvent,
    FaultPlan,
    FaultPlanner,
)
from repro.chaos.runner import (
    ChaosConfig,
    ChaosRunResult,
    MUTATIONS,
    build_chaos_cluster,
    chaos_sweep,
    describe_plan,
    generate_workload,
    run_chaos,
)
from repro.chaos.shrink import (
    ShrinkReport,
    load_repro_file,
    replay_repro_file,
    shrink_and_report,
    shrink_plan,
    summary_text,
    write_repro_file,
)

__all__ = [
    "AtomicityOracle",
    "CHAOS_FAULT",
    "ChaosConfig",
    "ChaosRunResult",
    "ExpectedEffect",
    "FaultEvent",
    "FaultPlan",
    "FaultPlanner",
    "MUTATIONS",
    "ShrinkReport",
    "VIOLATION_KINDS",
    "Violation",
    "build_chaos_cluster",
    "chaos_sweep",
    "describe_plan",
    "generate_workload",
    "load_repro_file",
    "replay_repro_file",
    "run_chaos",
    "shrink_and_report",
    "shrink_plan",
    "summary_text",
    "write_repro_file",
]
