"""Global atomicity invariant under arbitrary single failures.

The paper's bottom line, tested as one property: for ANY invocation
topology and ANY single failure (a service fault or a peer disconnection
at any protocol point), the system terminates with relaxed atomicity —

* if the transaction survived (forward recovery), every *alive* peer's
  share is either committed work or was compensated during a retry;
* if it aborted, every alive peer's document is restored to its
  pre-transaction canonical state;
* no context on any alive peer is left ACTIVE after the origin's
  commit/abort decision;
* disconnected peers may hold garbage — exactly the §3.3 caveat — but
  only disconnected ones.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Cluster
from repro.errors import PeerDisconnected, ReproError, ServiceFault
from repro.sim.rng import SeededRng
from repro.sim.workload import generate_invocation_tree, tree_peers
from repro.txn.transaction import TransactionState
from repro.xmlstore.serializer import canonical

FAULT_POINTS = ("before_execute", "after_execute")
DISCONNECT_POINTS = ("before_execute", "after_local_work", "before_return")


def snapshot_documents(scenario):
    return {
        peer_id: canonical(peer.get_axml_document(f"D{peer_id[2:]}").document)
        for peer_id, peer in scenario.peers.items()
    }


@given(
    seed=st.integers(0, 2**31 - 1),
    depth=st.integers(2, 4),
    failure_kind=st.sampled_from(["fault", "disconnect", "none"]),
    point_index=st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_single_failure_atomicity(seed, depth, failure_kind, point_index):
    rng = SeededRng(seed)
    topology = generate_invocation_tree(rng, depth=depth, fanout=2)
    # parent watch on: orphans of an in-flight dead subtree self-detect.
    scenario = Cluster.from_topology(topology, parent_watch_interval=0.05)
    pre = snapshot_documents(scenario)
    peers = tree_peers(topology)
    victim = rng.choice([p for p in peers if p != "AP1"])
    victim_method = f"S{victim[2:]}"
    if failure_kind == "fault":
        point = FAULT_POINTS[point_index % len(FAULT_POINTS)]
        scenario.injector.fault_service(victim, victim_method, "Crash", point=point)
    elif failure_kind == "disconnect":
        point = DISCONNECT_POINTS[point_index % len(DISCONNECT_POINTS)]
        scenario.injector.disconnect_peer_during(
            victim, victim, victim_method, point
        )

    txn, error = scenario.run_topology()
    origin = scenario.peer("AP1")
    if error is None:
        origin.commit(txn.txn_id)
    # (origin abort already ran inside the protocol when error != None)
    # Let keep-alive probes resolve any in-doubt orphans.
    scenario.network.events.run_until(scenario.network.clock.now + 2.0)

    for peer_id, peer in scenario.peers.items():
        if peer.disconnected:
            continue  # §3.3: dead peers may hold garbage
        context = peer.manager.contexts.get(txn.txn_id)
        if context is not None:
            assert context.state is not TransactionState.ACTIVE, (
                f"{peer_id} left ACTIVE after the decision"
            )
        if error is not None:
            # Aborted: alive peers must be back at their pre-state.
            post = canonical(peer.get_axml_document(f"D{peer_id[2:]}").document)
            assert post == pre[peer_id], f"{peer_id} not restored after abort"
        # Either way the log must be empty for this transaction.
        assert peer.manager.log.entries_for(txn.txn_id) == []


@given(seed=st.integers(0, 2**31 - 1), depth=st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_no_failure_always_commits(seed, depth):
    rng = SeededRng(seed)
    topology = generate_invocation_tree(rng, depth=depth, fanout=2)
    scenario = Cluster.from_topology(topology)
    txn, error = scenario.run_topology()
    assert error is None
    scenario.peer("AP1").commit(txn.txn_id)
    # every participant holds its marker entry
    for peer_id in tree_peers(topology):
        if peer_id == "AP1":
            continue
        doc = scenario.peer(peer_id).get_axml_document(f"D{peer_id[2:]}")
        assert f'<entry by="{peer_id}"/>' in doc.to_xml()


@given(seed=st.integers(0, 2**31 - 1), depth=st.integers(2, 3))
@settings(max_examples=25, deadline=None)
def test_peer_independent_matches_peer_dependent(seed, depth):
    """Both compensation modes must produce the same aborted state on
    alive peers."""
    rng = SeededRng(seed)
    topology = generate_invocation_tree(rng, depth=depth, fanout=2)
    leaves = [p for p in tree_peers(topology) if p not in topology and p != "AP1"]
    victim = rng.choice(leaves)
    states = {}
    for peer_independent in (False, True):
        scenario = Cluster.from_topology(topology)
        for peer in scenario.peers.values():
            peer.peer_independent = peer_independent
        scenario.injector.fault_service(
            victim, f"S{victim[2:]}", "Crash", point="after_execute"
        )
        txn, error = scenario.run_topology()
        assert error is not None
        states[peer_independent] = snapshot_documents(scenario)
    assert states[False] == states[True]
