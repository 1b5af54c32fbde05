"""E5 — §3.3 at scale: loss of effort, chaining vs naive, over random trees.

Random invocation trees (depth 2–5) run a transaction; a random internal
peer dies mid-execution of its subtree (the §3.3(b) window).  For each
(depth, protocol) we accumulate completed-work discards, reuse, redirect
counts and detection latency across seeds.

Shape being checked: chaining's discarded work stays at/near zero and
its reuse grows with depth, while the naive baseline discards more as
trees deepen; detection latency under chaining is bounded by a couple of
hops regardless of depth.
"""

import pytest

from repro.api import Cluster
from repro.errors import PeerDisconnected, ServiceFault
from repro.sim.harness import ExperimentTable, mean
from repro.sim.rng import SeededRng
from repro.sim.workload import generate_invocation_tree, tree_peers

from _util import publish


def pick_victim(topology, rng):
    """A random internal, non-root peer (it has a parent and children)."""
    internal = [p for p in topology if p != "AP1"]
    if not internal:
        return None
    return rng.choice(sorted(internal))


def run_one(depth: int, chaining: bool, seed: int):
    rng = SeededRng(seed)
    topology = generate_invocation_tree(rng, depth=depth, fanout=2)
    victim = pick_victim(topology, rng)
    if victim is None:
        return None
    scenario = Cluster.from_topology(topology, chaining=chaining)
    # The victim dies while its first child executes — its children hold
    # undeliverable results (§3.3b).
    first_child, first_method = topology[victim][0]
    scenario.injector.disconnect_peer_during(
        victim, first_child, first_method, "after_local_work"
    )
    scenario.run_topology()
    metrics = scenario.metrics
    return {
        "discarded": metrics.get("invocations_discarded"),
        "redirected": metrics.get("results_redirected"),
        "detect": metrics.detection_latency(victim),
        "peers": len(tree_peers(topology)),
    }


def run_sweep(seeds=range(8)):
    rows = []
    for depth in (2, 3, 4, 5):
        for chaining in (True, False):
            samples = [run_one(depth, chaining, s) for s in seeds]
            samples = [s for s in samples if s is not None]
            rows.append(
                {
                    "depth": depth,
                    "protocol": "chaining" if chaining else "naive",
                    "peers": mean([s["peers"] for s in samples]),
                    "discarded": mean([s["discarded"] for s in samples]),
                    "redirected": mean([s["redirected"] for s in samples]),
                    "detect_s": mean(
                        [s["detect"] for s in samples if s["detect"] is not None]
                    ),
                }
            )
    return rows


def test_e5_chaining_sweep(benchmark):
    rows = benchmark(run_sweep)
    table = ExperimentTable(
        "E5: loss of effort under disconnection — random trees, 8 seeds/row",
        ["depth", "protocol", "peers", "discarded", "redirected", "detect_s"],
    )
    for row in rows:
        table.add_row(**row)
    by_key = {(r["depth"], r["protocol"]): r for r in rows}
    for depth in (3, 4, 5):
        chained = by_key[(depth, "chaining")]
        naive = by_key[(depth, "naive")]
        # The whole transaction aborts either way (no recovery policy is
        # installed), but chaining redirects orphan results instead of
        # discarding them outright.
        assert chained["redirected"] > 0
        assert naive["redirected"] == 0
        assert chained["discarded"] <= naive["discarded"]
    table.add_note("victim = random internal peer dying mid-child-execution")
    publish(table, "e5_chaining_sweep.txt")
