"""E10 — the price of chaining: piggyback bytes vs failure-free cost.

§3.3's protocol piggybacks the active-peer list on every invocation.
The paper asserts the benefit (E5/F2 measure it); this bench quantifies
the *cost* in the failure-free case: extra bytes per invocation and the
growth of the chain text with tree size.

Shape being checked: per-invocation chain text grows roughly linearly
with the number of peers already enlisted (the serialized tree), total
piggyback bytes grow ~quadratically with tree size — but even at 40
peers the absolute overhead stays in the low kilobytes per transaction,
i.e. negligible next to a single fragment copy (E9's ~3 KB).
"""

import pytest

from repro.api import Cluster
from repro.p2p.messages import InvokeRequest
from repro.sim.harness import ExperimentTable, ratio
from repro.sim.rng import SeededRng
from repro.sim.workload import generate_invocation_tree, tree_peers

from _util import publish


def _chain_bytes(chain) -> int:
    """The carried chain's size in the paper's bracket notation."""
    return 0 if chain is None else len(chain.to_text())


class _ByteCounter:
    """Wraps network.rpc to sum chain-text payload bytes."""

    def __init__(self, network):
        self.network = network
        self.total_chain_bytes = 0
        self.invocations = 0
        self.max_chain_bytes = 0
        self._original = network.rpc
        network.rpc = self._rpc

    def _rpc(self, source_id, target_id, request: InvokeRequest):
        self.invocations += 1
        size = _chain_bytes(request.chain)
        self.total_chain_bytes += size
        self.max_chain_bytes = max(self.max_chain_bytes, size)
        result = self._original(source_id, target_id, request)
        self.total_chain_bytes += _chain_bytes(result.chain)
        return result


def run_point(depth: int, seed: int = 31):
    rng = SeededRng(seed)
    topology = generate_invocation_tree(rng, depth=depth, fanout=2, fanout_jitter=False)
    peers = len(tree_peers(topology))
    scenario = Cluster.from_topology(topology)
    counter = _ByteCounter(scenario.network)
    txn, error = scenario.run_topology()
    assert error is None
    baseline = Cluster.from_topology(topology, chaining=False)
    base_counter = _ByteCounter(baseline.network)
    baseline.run_topology()
    return {
        "depth": depth,
        "peers": peers,
        "invocations": counter.invocations,
        "chain_bytes": counter.total_chain_bytes,
        "max_msg_bytes": counter.max_chain_bytes,
        "bytes/invocation": counter.total_chain_bytes / counter.invocations,
        "naive_bytes": base_counter.total_chain_bytes,
    }


DEPTHS = (2, 3, 4, 5)


def test_e10_chain_overhead(benchmark):
    rows = [run_point(d) for d in DEPTHS[:-1]]
    rows.append(benchmark(run_point, DEPTHS[-1]))
    table = ExperimentTable(
        "E10: chaining piggyback overhead (failure-free runs, fanout 2)",
        [
            "depth",
            "peers",
            "invocations",
            "chain_bytes",
            "max_msg_bytes",
            "bytes/invocation",
            "naive_bytes",
        ],
    )
    for row in rows:
        table.add_row(**row)
    # Without chaining the piggyback cost is exactly zero.
    assert all(row["naive_bytes"] == 0 for row in rows)
    # Per-invocation cost grows with the enlisted-peer count...
    per_invocation = [row["bytes/invocation"] for row in rows]
    assert per_invocation == sorted(per_invocation)
    # ...but stays modest in absolute terms: at 63 peers the whole
    # transaction's piggyback sums to ~40 KB and no single message
    # carries more than ~0.6 KB of chain text.
    assert rows[-1]["chain_bytes"] < 64_000
    assert rows[-1]["max_msg_bytes"] < 1_000
    table.add_note("bytes counted on requests and merged-back results")
    publish(table, "e10_chain_overhead.txt")
