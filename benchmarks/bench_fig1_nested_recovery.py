"""F1 — Fig. 1 (§3.2): the nested recovery protocol.

Reproduces the paper's walk-through: peer AP5 fails while processing S5;
"Abort T_A" propagates to AP6 (downward) and AP3 (upward); intermediate
peers may stop the propagation by forward recovery.  The table reports,
for each recovery configuration, how far the abort travelled, how much
completed work was discarded, and the compensation cost in the paper's
own unit — XML nodes affected.

Shape being checked: forward recovery at AP3 keeps the abort local to
the AP5/AP6 subtree ("undo only as much as required"), so its discarded
work and compensation cost are strictly below full backward recovery.
"""

import pytest

from repro.api import Cluster
from repro.sim.harness import ExperimentTable
from repro.txn.recovery import FaultPolicy

from _util import publish, publish_json

#: config label → full metrics dump (histogram summaries included) from
#: the most recent run, exported alongside the table as JSON.
METRICS_BY_CONFIG = {}


def run_config(handler_at: str):
    """One Fig. 1 run: AP5 faults after its work; optional handler."""
    scenario = Cluster.fig1()
    scenario.injector.fault_service(
        "AP5", "S5", "Crash", times=1, point="after_execute"
    )
    if handler_at:
        scenario.peer(handler_at).set_fault_policy(
            "S5", [FaultPolicy(fault_names={"Crash"}, retry_times=2)]
        )
    txn, error = scenario.run_topology()
    compensation_cost = sum(
        peer.manager.compensation_cost for peer in scenario.peers.values()
    )
    config = f"handler@{handler_at}" if handler_at else "no handlers"
    dump = scenario.metrics.to_dict(include_values=False)
    # Transaction ids come from a process-global counter that moves with
    # pytest-benchmark's round count; the id-free tally regenerates
    # byte-identically.
    del dump["txn_outcomes"]
    dump["outcome_counts"] = scenario.metrics.outcome_counts()
    METRICS_BY_CONFIG[config] = dump
    return {
        "config": config,
        "outcome": "recovered" if error is None else "aborted",
        "local_aborts": scenario.metrics.get("local_aborts"),
        "abort_msgs": scenario.metrics.get("messages.abort"),
        "discarded": scenario.metrics.get("invocations_discarded"),
        "forward_recoveries": scenario.metrics.get("forward_recoveries"),
        "comp_nodes": compensation_cost,
    }


def test_fig1_nested_recovery(benchmark):
    rows = benchmark(lambda: [run_config(""), run_config("AP3")])
    table = ExperimentTable(
        "F1: Fig.1 nested recovery — AP5 fails while processing S5",
        [
            "config",
            "outcome",
            "local_aborts",
            "abort_msgs",
            "discarded",
            "forward_recoveries",
            "comp_nodes",
        ],
    )
    for row in rows:
        table.add_row(**row)
    backward, forward = rows
    # Paper shape: no handlers -> whole transaction aborts, abort messages
    # reach AP6, AP4 and AP2; handler at AP3 -> transaction survives and
    # compensation touches only the failed subtree.
    assert backward["outcome"] == "aborted"
    assert backward["abort_msgs"] == 3
    assert forward["outcome"] == "recovered"
    assert forward["forward_recoveries"] == 1
    assert forward["comp_nodes"] < backward["comp_nodes"]
    assert forward["discarded"] < backward["discarded"]
    table.add_note(
        "forward recovery at AP3 confines compensation to the AP5/AP6 subtree"
    )
    publish(table, "f1_nested_recovery.txt")
    publish_json(table, "f1_nested_recovery.json", metrics=METRICS_BY_CONFIG)
