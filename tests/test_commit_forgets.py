"""A committed transaction leaves only its effects (ROADMAP 25).

The commit decision is where a peer forgets a transaction: the origin
(after announcing the decision) and each participant (on the
``CommitMessage``) call ``TransactionManager.forget``, so the context
goes with its chain view and frames, and ``outcomes`` keeps
``txn_id → COMMITTED``.  The objects are counted with
``gc.get_objects()`` against those alive before the work began.
"""

import gc
from collections import Counter

import pytest

from repro.api import Cluster
from repro.chaos import ChaosConfig, run_chaos
from repro.chaos import runner
from repro.p2p.chain import PeerChain
from repro.sim.scenarios import FIG2_TOPOLOGY
from repro.txn.transaction import InvocationFrame, TransactionContext, TransactionState

KINDS = (TransactionContext, PeerChain, InvocationFrame)

#: The ``mem_invoke`` rung of ``benchmarks/e2e``: invocation trees and
#: chain piggyback only, no fault, WAL, replica or shard.
MEM_INVOKE = dict(
    providers=8, origins=2, concurrency=4, ops_per_txn=3, invoke_fraction=0.6,
    arrival_rate=2.0, op_gap=0.01, fault_rate=0.0, handlers=False,
)


def _existing():
    """The protocol objects alive now (held, so their ids stay theirs)."""
    gc.collect()
    return [o for o in gc.get_objects() if type(o) in KINDS]


def _alive_since(held):
    gc.collect()
    before = {id(o) for o in held}
    return Counter(
        type(o).__name__ for o in gc.get_objects()
        if type(o) in KINDS and id(o) not in before
    )


def test_a_committed_fig2_transaction_leaves_no_protocol_state():
    held = _existing()
    cluster = Cluster.from_topology(FIG2_TOPOLOGY)
    origin = cluster.peer("AP1")
    txn = origin.begin_transaction()
    origin.invoke(txn.txn_id, "AP2", "S2", {})
    undecided = _alive_since(held)
    # Before the decision all six peers hold a context with its view.
    assert undecided["TransactionContext"] == undecided["PeerChain"] == 6
    assert undecided["InvocationFrame"] == 5

    origin.commit(txn.txn_id)
    cluster.network.events.run_all()
    assert _alive_since(held) == Counter()
    for peer_id in ("AP1", "AP2", "AP3", "AP4", "AP5", "AP6"):
        peer = cluster.peer(peer_id)
        assert peer.manager.states() == {txn.txn_id: TransactionState.COMMITTED}
        assert peer.manager.has_context(txn.txn_id)
        assert peer.manager.live_context(txn.txn_id) is None
        peer.manager.commit_local(txn.txn_id)  # a repeated commit is a no-op
    assert "<entry" in cluster.peer("AP6").get_axml_document("D6").to_xml()


@pytest.mark.parametrize("txns", [40, 120])
def test_protocol_state_is_flat_over_run_length(txns, monkeypatch):
    """Counted where ``scheduler.run`` ends, before settlement forgets
    anything: what is alive is the state of shares that did not commit,
    which on this fault-free shape is none, at either size."""
    seen = {}
    settle = runner._settle_and_check

    def counted(result):
        seen["alive"] = _alive_since(held)
        seen["open"] = sum(
            context.state is not TransactionState.COMMITTED
            for peer in result.cluster.peers.values()
            for context in peer.manager.contexts.values()
        )
        seen["committed"] = sum(r.committed for r in result.results)
        return settle(result)

    monkeypatch.setattr(runner, "_settle_and_check", counted)
    held = _existing()
    result = run_chaos(ChaosConfig(seed=21, txns=txns, **MEM_INVOKE))
    assert result.ok
    assert seen["committed"] == txns
    assert seen["open"] == 0
    assert sum(seen["alive"].values()) == seen["open"], seen["alive"]
