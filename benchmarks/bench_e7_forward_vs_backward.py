"""E7 — §3.2's cost measure: forward vs backward recovery in nodes affected.

"For AXML systems, the number of XML nodes affected (traversed) is
usually a good measure of the cost of an operation (forward or
compensating)."  We build linear invocation chains AP1→AP2→…→APn, fail
the service at each depth, and compare:

* backward recovery (no handlers): every peer from the failure point up
  to the root compensates — cost grows as the failure gets shallower
  relative to completed work below… here, as more ancestors must undo;
* forward recovery (a retry handler right above the failure): only the
  failed peer's own aborted attempt is compensated.

In this chain every peer completes its local work before the failure
strikes, so backward recovery always compensates the *whole* chain —
its cost is flat at the maximum.  Forward recovery compensates only the
failed subtree (the peers at and below the failure), so its cost
*decreases* with failure depth and never exceeds backward's.

Shape being checked: forward ≤ backward at every depth, with forward
strictly cheaper once any completed ancestor exists above the failure
("undo only as much as required"), and forward's cost monotonically
decreasing in failure depth.
"""

import pytest

from repro.api import Cluster
from repro.sim.harness import ExperimentTable
from repro.txn.recovery import FaultPolicy

from _util import publish

CHAIN_LENGTH = 6


def linear_topology(length: int):
    return {
        f"AP{i}": [(f"AP{i + 1}", f"S{i + 1}")] for i in range(1, length)
    }


def run_config(fail_depth: int, forward: bool):
    """Fail S<fail_depth> after its local work; optionally a retry handler
    sits at the invoking peer (depth-1)."""
    topology = linear_topology(CHAIN_LENGTH)
    scenario = Cluster.from_topology(topology)
    scenario.injector.fault_service(
        f"AP{fail_depth}", f"S{fail_depth}", "Crash", times=1, point="after_execute"
    )
    if forward:
        scenario.peer(f"AP{fail_depth - 1}").set_fault_policy(
            f"S{fail_depth}",
            [FaultPolicy(fault_names={"Crash"}, retry_times=1)],
        )
    txn, error = scenario.run_topology()
    comp_nodes = sum(p.manager.compensation_cost for p in scenario.peers.values())
    return {
        "fail_depth": fail_depth,
        "recovery": "forward" if forward else "backward",
        "outcome": "recovered" if error is None else "aborted",
        "comp_nodes": comp_nodes,
        "local_aborts": scenario.metrics.get("local_aborts"),
    }


def run_sweep():
    rows = []
    for depth in range(2, CHAIN_LENGTH + 1):
        rows.append(run_config(depth, forward=False))
        rows.append(run_config(depth, forward=True))
    return rows


def test_e7_forward_vs_backward(benchmark):
    rows = benchmark(run_sweep)
    table = ExperimentTable(
        f"E7: recovery cost in XML nodes affected (chain of {CHAIN_LENGTH} peers)",
        ["fail_depth", "recovery", "outcome", "comp_nodes", "local_aborts"],
    )
    for row in rows:
        table.add_row(**row)
    by_key = {(r["fail_depth"], r["recovery"]): r for r in rows}
    for depth in range(2, CHAIN_LENGTH + 1):
        forward = by_key[(depth, "forward")]
        backward = by_key[(depth, "backward")]
        assert forward["outcome"] == "recovered"
        assert backward["outcome"] == "aborted"
        assert forward["comp_nodes"] <= backward["comp_nodes"]
        assert forward["local_aborts"] <= backward["local_aborts"]
        if depth > 2:
            # Completed ancestors exist above the failure: forward is
            # strictly cheaper ("undo only as much as required").
            assert forward["comp_nodes"] < backward["comp_nodes"]
    # Backward always compensates the whole chain (flat, maximal cost);
    # forward's cost shrinks as the failure moves deeper.
    backward_costs = [by_key[(d, "backward")]["comp_nodes"] for d in range(2, CHAIN_LENGTH + 1)]
    forward_costs = [by_key[(d, "forward")]["comp_nodes"] for d in range(2, CHAIN_LENGTH + 1)]
    assert len(set(backward_costs)) == 1
    assert forward_costs == sorted(forward_costs, reverse=True)
    assert forward_costs[-1] < forward_costs[0]
    table.add_note("forward recovery = retry handler at the peer above the failure")
    publish(table, "e7_forward_vs_backward.txt")
