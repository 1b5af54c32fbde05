"""A3 (ablation) — extended chaining: uncles and cousins.

The conclusion's future work: "Currently, the 'chaining' mechanism is
restricted to the parent, children and sibling peers.  We are exploring
the feasibility of extending the same to uncles, cousins, etc."

In a bushy tree, a disconnection dooms the transaction for *every*
branch, but the §3.3 protocol only informs the dead peer's own subtree
— parallel branches keep burning effort until the abort reaches them.
The extended scope additionally alerts the dead peer's grandparent,
uncles and cousins.

Shape being checked: with pending continuous work spread over all
branches, extended scope informs strictly more peers and wastes strictly
fewer work units than immediate scope, at the price of a few more
notification messages.
"""

import pytest

from repro.api import Cluster
from repro.sim.harness import ExperimentTable

from _util import publish

#: A bushy 3-level tree: AP2..AP4 under the root, three children each.
BUSHY = {
    "AP1": [("AP2", "S2"), ("AP3", "S3"), ("AP4", "S4")],
    "AP2": [("AP5", "S5"), ("AP6", "S6")],
    "AP3": [("AP7", "S7"), ("AP8", "S8")],
    "AP4": [("AP9", "S9"), ("AP10", "S10")],
}


def run_point(scope: str, units_per_peer: int = 10):
    scenario = Cluster.from_topology(BUSHY, chain_scope=scope)
    txn, _ = scenario.run_topology()
    # Every leaf/branch holds pending continuous work; the txn is doomed
    # once AP3 dies, whether or not a peer has been told.
    workers = [p for p in scenario.peers if p not in ("AP1", "AP3")]
    for peer_id in workers:
        peer = scenario.peer(peer_id)
        peer.mark_doomed(txn.txn_id)  # ground truth for waste metering
        peer.add_pending_work(txn.txn_id, units=units_per_peer, unit_duration=0.05)
    scenario.network.disconnect("AP3")
    scenario.peer("AP1").check_child_liveness(txn.txn_id)
    scenario.network.events.run_until(scenario.network.clock.now + 10.0)
    return {
        "scope": scope,
        "informed": scenario.metrics.get("descendants_informed"),
        "wasted_units": scenario.metrics.get("work_units_wasted"),
        "notices": scenario.metrics.get("messages.disconnect_notice"),
    }


def test_a3_extended_chaining(benchmark):
    immediate = run_point("immediate")
    extended = benchmark(run_point, "extended")
    table = ExperimentTable(
        "A3 (ablation): disconnection-notice scope — immediate vs extended",
        ["scope", "informed", "wasted_units", "notices"],
    )
    table.add_row(**immediate)
    table.add_row(**extended)
    # Extended informs the dead peer's uncles/cousins too...
    assert extended["informed"] > immediate["informed"]
    # ...which cancels their pending effort.
    assert extended["wasted_units"] < immediate["wasted_units"]
    # The cost is a handful of extra notices, not a broadcast storm.
    assert extended["notices"] <= immediate["notices"] + 8
    table.add_note("victim AP3 in a bushy 10-peer tree; 10 work units per peer")
    publish(table, "a3_extended_chaining.txt")
