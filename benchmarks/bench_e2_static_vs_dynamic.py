"""E2 — §3.1's feasibility claim: static compensation cannot cover AXML.

Sweeps the query fraction of a workload over documents with embedded
service calls.  Static handlers are derived diligently at definition
time (fresh old-values, path-based targeting); queries traditionally get
no handler.  Dynamic compensation is constructed from the run-time log.

Shape being checked: static coverage and correctness fall as the query
fraction rises (lazy materialization mutates the document with no
handler to undo it) and as earlier operations make handlers stale;
dynamic correctness stays at 1.0 throughout.
"""

import pytest

from repro.baselines.static_compensation import CoverageReport, StaticCompensator
from repro.query.ast import ActionType
from repro.query.update import apply_action
from repro.sim.harness import ExperimentTable
from repro.sim.rng import SeededRng
from repro.sim.workload import OperationMix, generate_catalogue, generate_operation
from repro.txn.compensation import compensate_records, compensating_actions_for
from repro.axml.materialize import MaterializationEngine
from repro.outcome import Outcome
from repro.xmlstore.serializer import canonical

from _util import publish


def _stock_resolver(call, params):
    return Outcome(["<stock>fresh</stock>"])


def run_point(query_fraction: float, seed: int = 7, operations: int = 60):
    rng = SeededRng(seed)
    mix = OperationMix(
        insert=(1 - query_fraction) / 3,
        delete=(1 - query_fraction) / 3,
        replace=(1 - query_fraction) / 3,
        query=query_fraction,
    )
    static_report = CoverageReport()
    dynamic_restored = 0
    dynamic_total = 0
    compensator = StaticCompensator()
    for index in range(operations):
        axml = generate_catalogue(
            rng, item_count=6, name="Cat", call_density=0.5
        )
        document = axml.document
        action = generate_operation(rng, axml, mix)
        # The static handler is written *now*, against the current state.
        handler = StaticCompensator.derive_handler(action, document)
        key = f"op{index}"
        if handler is not None:
            compensator.define(key, handler)
        # A concurrent-ish earlier change makes some handlers stale.
        if rng.coin(0.3) and action.action_type is not ActionType.QUERY:
            staleifier = generate_operation(rng, axml, OperationMix(0, 0, 1, 0))
            try:
                apply_action(document, staleifier)
            except Exception:
                pass
        pre = document.clone_tree()
        # --- forward execution (queries materialize lazily) ----------
        records = []
        try:
            if action.action_type is ActionType.QUERY:
                engine = MaterializationEngine(axml, _stock_resolver)
                report = engine.materialize_for_query(action.location)
                records = report.change_records()
            else:
                result = apply_action(document, action)
                records = list(result.records)
        except Exception:
            continue
        # --- static compensation on a copy ----------------------------
        static_doc = document.clone_tree()
        compensator.compensate(key, static_doc, pre, static_report)
        # --- dynamic compensation on the real document ----------------
        dynamic_total += 1
        for comp in compensate_records(records, "Cat"):
            apply_action(document, comp, tolerate_missing_targets=True)
        dynamic_restored += int(canonical(document) == canonical(pre))
    return {
        "query_frac": query_fraction,
        "ops": static_report.operations,
        "static_coverage": static_report.coverage_rate,
        "static_correct": static_report.correctness_rate,
        "dynamic_correct": dynamic_restored / dynamic_total if dynamic_total else 1.0,
    }


POINTS = (0.0, 0.25, 0.5, 0.75, 1.0)


def test_e2_static_vs_dynamic(benchmark):
    rows = [run_point(p) for p in POINTS[:-1]]
    rows.append(benchmark(run_point, POINTS[-1]))
    table = ExperimentTable(
        "E2: static (pre-defined) vs dynamic compensation",
        ["query_frac", "ops", "static_coverage", "static_correct", "dynamic_correct"],
    )
    for row in rows:
        table.add_row(**row)
    # Dynamic is always exact.
    assert all(row["dynamic_correct"] == 1.0 for row in rows)
    # Static coverage collapses as queries dominate...
    assert rows[-1]["static_coverage"] < rows[0]["static_coverage"]
    assert rows[-1]["static_coverage"] == 0.0
    # ...and static correctness is strictly below dynamic everywhere the
    # workload contains queries or staleness.
    assert all(row["static_correct"] < 1.0 for row in rows if row["query_frac"] > 0)
    table.add_note("queries have no static handler; lazy materialization goes unundone")
    publish(table, "e2_static_vs_dynamic.txt")
