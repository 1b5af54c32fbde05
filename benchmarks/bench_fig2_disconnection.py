"""F2 — Fig. 2 (§3.3): the four disconnection cases, chaining vs naive.

One row per (case, protocol).  Shape being checked, per the paper's
objective — "minimize loss of effort by detecting the disconnection as
soon as possible and reuse already performed work as much as possible":

* (b): chaining redirects the orphan's results and reuses them; naive
  discards the completed work;
* (c): chaining informs the dead peer's descendants, cancelling their
  pending effort; naive lets them burn every unit;
* (d): only chaining lets a sibling alert the dead peer's relatives.
"""

import pytest

from repro.api import Cluster
from repro.sim.harness import ExperimentTable
from repro.txn.recovery import DISCONNECT_FAULT, FaultPolicy

from _util import publish, publish_json

#: (case, protocol) label → metrics dump (histogram summaries included)
#: from the most recent run, exported alongside the table as JSON.
METRICS_BY_CASE = {}


def _stash(case: str, chaining: bool, scenario) -> None:
    label = f"{case}:{'chaining' if chaining else 'naive'}"
    METRICS_BY_CASE[label] = scenario.metrics.to_dict(include_values=False)


def _fig2(chaining: bool, with_replacement: bool = False):
    extra = ("APX",) if with_replacement else ()
    scenario = Cluster.fig2(extra_peers=extra, chaining=chaining)
    if with_replacement:
        scenario.replication.replicate_service("S3", "APX")
        scenario.replication.replicate_document("D3", "APX")
        scenario.peer("AP2").set_fault_policy(
            "S3",
            [FaultPolicy(fault_names={DISCONNECT_FAULT}, retry_times=1,
                         alternative_peer="APX")],
        )
    return scenario


def run_case_b(chaining: bool):
    scenario = _fig2(chaining, with_replacement=True)
    scenario.injector.disconnect_peer_during("AP3", "AP6", "S6", "after_local_work")
    txn, error = scenario.run_topology()
    _stash("b", chaining, scenario)
    return {
        "case": "b:parent-dies",
        "protocol": "chaining" if chaining else "naive",
        "recovered": int(error is None),
        "redirected": scenario.metrics.get("results_redirected"),
        "reused": scenario.metrics.get("invocations_reused"),
        "discarded": scenario.metrics.get("invocations_discarded"),
        "wasted_units": scenario.metrics.get("work_units_wasted"),
        "detect_s": scenario.metrics.detection_latency("AP3"),
    }


def run_case_c(chaining: bool):
    scenario = _fig2(chaining)
    txn, _ = scenario.run_topology()
    scenario.peer("AP6").add_pending_work(txn.txn_id, units=20, unit_duration=0.05)
    if not chaining:
        # Ground truth for waste accounting: the txn is doomed either way.
        scenario.peer("AP6").mark_doomed(txn.txn_id)
    scenario.network.disconnect("AP3")
    dead = scenario.peer("AP2").check_child_liveness(txn.txn_id)
    scenario.network.events.run_until(scenario.network.clock.now + 5.0)
    _stash("c", chaining, scenario)
    return {
        "case": "c:child-dies",
        "protocol": "chaining" if chaining else "naive",
        "recovered": int(bool(dead)),
        "redirected": 0,
        "reused": 0,
        "discarded": scenario.metrics.get("invocations_discarded"),
        "wasted_units": scenario.metrics.get("work_units_wasted"),
        "detect_s": scenario.metrics.detection_latency("AP3"),
    }


def run_case_d(chaining: bool):
    scenario = _fig2(chaining)
    txn, _ = scenario.run_topology()
    scenario.network.disconnect("AP3")
    scenario.peer("AP4").report_stream_timeout(txn.txn_id, "AP3")
    informed = int(scenario.peer("AP2").is_doomed(txn.txn_id)) + int(
        scenario.peer("AP6").is_doomed(txn.txn_id)
    )
    _stash("d", chaining, scenario)
    return {
        "case": "d:sibling-silent",
        "protocol": "chaining" if chaining else "naive",
        "recovered": informed,
        "redirected": 0,
        "reused": 0,
        "discarded": scenario.metrics.get("invocations_discarded"),
        "wasted_units": scenario.metrics.get("work_units_wasted"),
        "detect_s": scenario.metrics.detection_latency("AP3"),
    }


def all_cases():
    rows = []
    for chaining in (True, False):
        rows.append(run_case_b(chaining))
        rows.append(run_case_c(chaining))
        rows.append(run_case_d(chaining))
    return rows


def test_fig2_disconnection_cases(benchmark):
    rows = benchmark(all_cases)
    table = ExperimentTable(
        "F2: Fig.2 disconnection cases — chaining vs naive",
        [
            "case",
            "protocol",
            "recovered",
            "redirected",
            "reused",
            "discarded",
            "wasted_units",
            "detect_s",
        ],
    )
    for row in rows:
        table.add_row(**row)
    by_key = {(r["case"], r["protocol"]): r for r in rows}
    # (b): chaining reuses, naive discards.
    assert by_key[("b:parent-dies", "chaining")]["reused"] == 1
    assert by_key[("b:parent-dies", "chaining")]["discarded"] == 0
    assert by_key[("b:parent-dies", "naive")]["reused"] == 0
    assert by_key[("b:parent-dies", "naive")]["discarded"] >= 1
    # (c): chaining saves the orphan's pending effort.
    assert by_key[("c:child-dies", "chaining")]["wasted_units"] == 0
    assert by_key[("c:child-dies", "naive")]["wasted_units"] == 20
    # (d): only chaining informs relatives.
    assert by_key[("d:sibling-silent", "chaining")]["recovered"] == 2
    assert by_key[("d:sibling-silent", "naive")]["recovered"] == 0
    table.add_note("recovered column: (b) txn survived, (d) relatives informed")
    publish(table, "f2_disconnection.txt")
    publish_json(table, "f2_disconnection.json", metrics=METRICS_BY_CASE)
