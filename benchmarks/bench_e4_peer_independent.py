"""E4 — §3.2: peer-independent vs peer-dependent compensation under churn.

A 4-peer booking transaction runs to completion; then, with probability
*p*, each provider disconnects before the abort.  Peer-dependent
compensation needs every provider alive (each compensates its own
share); peer-independent compensation ships the collected definitions —
and, when a provider is gone, falls back to a super-peer replica of its
document.

Shape being checked: completion rate of compensation degrades steeply
with *p* for peer-dependent mode, but stays near 1.0 for
peer-independent + replicas (the combination the spheres analysis calls
safe).
"""

import pytest

from repro.axml.document import AXMLDocument
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import UpdateService
from repro.sim.rng import SeededRng
from repro.sim.harness import ExperimentTable

from _util import publish

PROVIDERS = ("P1", "P2", "P3")


def build(peer_independent: bool, with_replicas: bool):
    network = SimNetwork()
    origin = AXMLPeer("Origin", network, peer_independent=peer_independent)
    replication = network.replication
    super_peer = AXMLPeer("Super", network, super_peer=True,
                          peer_independent=peer_independent)
    for name in PROVIDERS:
        peer = AXMLPeer(name, network, peer_independent=peer_independent)
        doc_name = f"Doc{name}"
        peer.host_document(
            AXMLDocument.from_xml(f"<{doc_name}><slots/></{doc_name}>", name=doc_name)
        )
        replication.register_primary(doc_name, name)
        peer.host_service(
            UpdateService(
                ServiceDescriptor(f"book{name}", params=("c",), target_document=doc_name),
                f'<action type="insert"><data><slot c="$c"/></data>'
                f"<location>Select d from d in {doc_name}//slots;</location></action>",
            )
        )
    return network, origin, replication


def run_point(disconnect_prob: float, peer_independent: bool,
              with_replicas: bool, trials: int = 60, seed: int = 3):
    rng = SeededRng(seed)
    complete = 0
    for _ in range(trials):
        network, origin, replication = build(peer_independent, with_replicas)
        txn = origin.begin_transaction()
        for name in PROVIDERS:
            origin.invoke(txn.txn_id, name, f"book{name}", {"c": "x"})
        if with_replicas:
            # Replicate post-update state onto the super peer (the §3.3
            # "all involved peers are super peers" escape hatch).
            for name in PROVIDERS:
                replication.replicate_document(f"Doc{name}", "Super")
        for name in PROVIDERS:
            if rng.coin(disconnect_prob):
                network.disconnect(name)
        complete += int(origin.abort(txn.txn_id))
    return complete / trials


POINTS = (0.0, 0.2, 0.4, 0.6, 0.8)


def run_sweep():
    rows = []
    for p in POINTS:
        rows.append(
            {
                "disconnect_p": p,
                "peer_dependent": run_point(p, False, False),
                "peer_indep": run_point(p, True, False),
                "peer_indep+replica": run_point(p, True, True),
            }
        )
    return rows


def test_e4_peer_independent(benchmark):
    rows = benchmark(run_sweep)
    table = ExperimentTable(
        "E4: compensation completion rate vs provider disconnect probability",
        ["disconnect_p", "peer_dependent", "peer_indep", "peer_indep+replica"],
    )
    for row in rows:
        table.add_row(**row)
    # At p=0 everything completes.
    assert rows[0]["peer_dependent"] == 1.0
    assert rows[0]["peer_indep"] == 1.0
    # Under churn, peer-independent + replicas dominates.
    high = rows[-1]
    assert high["peer_indep+replica"] == 1.0
    assert high["peer_dependent"] < 0.5
    assert high["peer_indep+replica"] > high["peer_dependent"]
    # Without replicas, peer-independent alone cannot reach dead providers
    # either — matching the spheres analysis.
    assert high["peer_indep"] <= high["peer_indep+replica"]
    table.add_note("replica = each provider's document mirrored on a super peer")
    publish(table, "e4_peer_independent.txt")
