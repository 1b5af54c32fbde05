"""Long-run stress: many transactions with random failures on one network.

A single Fig.2-shaped deployment processes a stream of transactions; a
seeded adversary injects faults and disconnections (with rejoins)
between and during them.  After the storm, invariants:

* every transaction reached a terminal outcome;
* peers that are alive at the end hold consistent state — committed
  markers only from committed transactions;
* logs hold no leftovers;
* the network keeps functioning (a final clean transaction commits).
"""

import pytest

from repro.api import Cluster
from repro.errors import ReproError
from repro.sim.rng import SeededRng
from repro.sim.scenarios import FIG2_TOPOLOGY
from repro.txn.transaction import TransactionState


@pytest.mark.parametrize("seed", [1, 7, 23, 99])
def test_transaction_storm(seed):
    rng = SeededRng(seed)
    scenario = Cluster.from_topology(FIG2_TOPOLOGY)
    network = scenario.network
    origin = scenario.peer("AP1")
    committed, aborted = [], []

    def revive(peer):
        """Rejoin, then settle each share the peer still holds with the
        origin's decision for its transaction."""
        peer.rejoin()
        for txn_id in list(peer.manager.contexts):
            peer.resolve_in_doubt(txn_id, committed=txn_id in committed)

    for round_index in range(30):
        # Random churn between transactions: kill or revive one ordinary peer.
        if rng.coin(0.25):
            victim = rng.choice(["AP2", "AP3", "AP4", "AP5", "AP6"])
            if network.is_alive(victim):
                network.disconnect(victim)
            else:
                revive(scenario.peer(victim))
        # Random in-flight fault.
        if rng.coin(0.3):
            victim = rng.choice(["AP3", "AP4", "AP5", "AP6"])
            scenario.injector.fault_service(
                victim, f"S{victim[2:]}", "Storm", times=1, point="after_execute"
            )
        txn = origin.begin_transaction()
        try:
            for child, method in FIG2_TOPOLOGY["AP1"]:
                origin.invoke(txn.txn_id, child, method, {})
            origin.commit(txn.txn_id)
            committed.append(txn.txn_id)
        except ReproError:
            aborted.append(txn.txn_id)
        # Drain any deferred notifications.
        network.events.run_until(network.clock.now + 0.1)

    # Every transaction reached a decision at the origin.
    for txn_id in committed + aborted:
        context = origin.manager.contexts[txn_id]
        assert context.is_finished, txn_id
    assert all(c.is_finished for c in origin.manager.contexts.values())
    assert len(origin.manager.log) == 0

    # Revive everyone and verify consistency: alive peers' documents only
    # contain markers from some prefix of committed work (a marker per
    # committed transaction that reached that peer; none from aborted
    # transactions is impossible to check by txn id — markers are
    # anonymous — so we check the weaker but real invariant that marker
    # count never exceeds the committed-transaction count).
    for peer_id, peer in scenario.peers.items():
        if not network.is_alive(peer_id):
            revive(peer)
    network.events.run_until(network.clock.now + 1.0)
    for peer_id, peer in scenario.peers.items():
        if peer_id == "AP1":
            continue
        text = peer.get_axml_document(f"D{peer_id[2:]}").to_xml()
        markers = text.count("<entry")
        assert markers <= len(committed), (
            f"{peer_id} holds {markers} markers but only "
            f"{len(committed)} transactions committed"
        )

    # The system still works once the adversary stops (leftover one-shot
    # fault scripts whose peer happened to be down when they were armed
    # are disarmed: zero charges left).
    for victim in ("AP3", "AP4", "AP5", "AP6"):
        scenario.injector.fault_service(
            victim, f"S{victim[2:]}", "Storm", times=0, point="after_execute"
        )
    final = origin.begin_transaction()
    for child, method in FIG2_TOPOLOGY["AP1"]:
        origin.invoke(final.txn_id, child, method, {})
    origin.commit(final.txn_id)
    assert network.metrics.txn_outcomes[final.txn_id] == "committed"


def test_many_local_transactions_log_stays_bounded():
    from repro.axml.document import AXMLDocument
    from repro.p2p.network import SimNetwork
    from repro.p2p.peer import AXMLPeer

    network = SimNetwork()
    peer = AXMLPeer("AP1", network)
    peer.host_document(
        AXMLDocument.from_xml("<D><items/></D>", name="D")
    )
    rng = SeededRng(5)
    for index in range(200):
        txn = peer.begin_transaction()
        peer.submit(
            txn.txn_id,
            f'<action type="insert"><data><i n="{index}"/></data>'
            "<location>Select d from d in D//items;</location></action>",
        )
        if rng.coin(0.5):
            peer.commit(txn.txn_id)
        else:
            peer.abort(txn.txn_id)
    # Commit/abort both truncate: nothing accumulates.
    assert len(peer.manager.log) == 0
    document = peer.get_axml_document("D")
    inserted = document.to_xml().count("<i ")
    outcomes = network.metrics.outcome_counts()
    assert inserted == outcomes["committed"]
