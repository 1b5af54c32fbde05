"""Greedy fault-schedule minimization + the repro-file format.

When a run fails the oracle, the *schedule* that provoked it is usually
mostly noise: greedy event-removal re-runs the same seed (same
workload, same interleaving) with one event deleted at a time and keeps
every deletion that still fails, iterating to a fixpoint.  Same-seed
replay makes this sound: a chaos run is a pure function of
``(config, plan)``, so "still fails without event i" is a property of
the plan, not of luck.

The minimized ``(config, plan, violations)`` triple is written as a
strict-JSON **repro file** (:func:`write_repro_file`) that
``repro chaos --replay FILE`` re-executes; the format is documented in
``docs/CHAOS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.chaos.planner import FaultPlan
from repro.chaos.runner import ChaosConfig, ChaosRunResult, run_chaos
from repro.obs import stable_json, write_json_artifact

REPRO_VERSION = 1


@dataclass
class ShrinkReport:
    """What minimization did: every candidate run is accounted for."""

    original_events: int
    minimized_events: int
    runs: int
    result: ChaosRunResult

    @property
    def removed(self) -> int:
        return self.original_events - self.minimized_events


def shrink_plan(
    config: ChaosConfig,
    plan: FaultPlan,
    max_runs: int = 200,
) -> ShrinkReport:
    """Greedy fault-removal minimization of a failing schedule.

    Deletion candidates are tried newest-first (later events are more
    often incidental); each pass restarts after a successful deletion
    and the loop ends at a fixpoint (no single deletion still fails) or
    at ``max_runs`` replays.  The returned report's ``result`` is the
    re-run of the minimized plan — still failing, by construction.
    """
    current_plan = plan
    current = run_chaos(config, plan=current_plan)
    if current.ok:
        raise ValueError("shrink_plan needs a failing (config, plan) pair")
    runs = 1
    progress = True
    while progress and runs < max_runs:
        progress = False
        for index in reversed(range(len(current_plan))):
            candidate_plan = current_plan.without(index)
            candidate = run_chaos(config, plan=candidate_plan)
            runs += 1
            if not candidate.ok:
                current_plan, current = candidate_plan, candidate
                progress = True
                break
            if runs >= max_runs:
                break
    return ShrinkReport(
        original_events=len(plan),
        minimized_events=len(current_plan),
        runs=runs,
        result=current,
    )


# ---------------------------------------------------------------------------
# repro files
# ---------------------------------------------------------------------------

def repro_payload(result: ChaosRunResult) -> Dict[str, object]:
    """The JSON body of a repro file for one failing run."""
    return {
        "version": REPRO_VERSION,
        "config": result.config.to_dict(),
        "plan": result.plan.to_dict(),
        "violations": [v.to_dict() for v in result.violations],
    }


def write_repro_file(path: str, result: ChaosRunResult) -> str:
    """Write the repro file (strict JSON, sorted keys); returns *path*."""
    write_json_artifact(path, repro_payload(result))
    return path


def load_repro_file(path: str) -> tuple:
    """Parse a repro file back into ``(config, plan)``.

    A malformed file — not JSON, wrong version, ``config``/``plan``
    missing, a wrongly typed field, an unknown fault kind — raises
    ``ValueError`` naming what is wrong, before anything is built."""
    import json

    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("a repro file holds one JSON object")
    version = data.get("version")
    if version != REPRO_VERSION:
        raise ValueError(f"unsupported repro-file version {version!r}")
    for key in ("config", "plan"):
        if not isinstance(data.get(key), dict):
            raise ValueError(f"repro file needs a {key!r} object")
    try:
        plan = FaultPlan.from_dict(data["plan"])
    except ValueError as exc:
        raise ValueError(f"malformed 'plan': {exc}") from None
    return ChaosConfig.from_dict(data["config"]), plan


def replay_repro_file(path: str) -> ChaosRunResult:
    """Re-execute the run a repro file pins down."""
    config, plan = load_repro_file(path)
    return run_chaos(config, plan=plan)


def shrink_and_report(
    config: ChaosConfig,
    plan: FaultPlan,
    repro_path: Optional[str] = None,
) -> ShrinkReport:
    """Shrink, then (optionally) persist the minimized repro file."""
    report = shrink_plan(config, plan)
    if repro_path is not None:
        write_repro_file(repro_path, report.result)
    return report


def summary_text(result: ChaosRunResult) -> str:
    """Byte-stable JSON of a run summary (the determinism artifact)."""
    return stable_json(result.summary)
