"""Integration tests for AXMLPeer: transactions across simulated peers."""

import pytest

from repro.axml.document import AXMLDocument
from repro.errors import PeerDisconnected, ServiceFault, TransactionError
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import FunctionService, UpdateService
from repro.txn.recovery import DISCONNECT_FAULT, FaultPolicy
from repro.txn.transaction import TransactionState
from repro.xmlstore.serializer import canonical

SHOP = "<Shop><item id='1'><price>10</price><stock>3</stock></item></Shop>"

SET_PRICE = (
    '<action type="replace"><data><price>$price</price></data>'
    "<location>Select i/price from i in Shop//item;</location></action>"
)


def make_pair(peer_independent=False, chaining=True):
    """AP1 (origin, hosts Shop) + AP2 (hosts setPrice service on Shop2)."""
    network = SimNetwork()
    ap1 = AXMLPeer("AP1", network, peer_independent=peer_independent, chaining=chaining)
    ap2 = AXMLPeer("AP2", network, peer_independent=peer_independent, chaining=chaining)
    ap1.host_document(AXMLDocument.from_xml(SHOP, name="Shop"))
    ap2.host_document(AXMLDocument.from_xml(SHOP.replace("Shop", "Shop2"), name="Shop2"))
    ap2.host_service(
        UpdateService(
            ServiceDescriptor("setPrice", params=("price",), target_document="Shop2"),
            SET_PRICE.replace("Shop//item", "Shop2//item"),
        )
    )
    return network, ap1, ap2


def _boom(params):
    raise ServiceFault("Boom", "injected fault in boom")


class TestLocalTransactions:
    def test_submit_and_commit(self):
        network, ap1, _ = make_pair()
        txn = ap1.begin_transaction()
        ap1.submit(txn.txn_id, SET_PRICE.replace("$price", "42"))
        ap1.commit(txn.txn_id)
        assert "42" in ap1.get_axml_document("Shop").to_xml()
        assert network.metrics.txn_outcomes[txn.txn_id] == "committed"
        # committed log entries truncated
        assert ap1.manager.log.entries_for(txn.txn_id) == []

    def test_submit_and_abort_restores(self):
        network, ap1, _ = make_pair()
        pre = canonical(ap1.get_axml_document("Shop").document)
        txn = ap1.begin_transaction()
        ap1.submit(txn.txn_id, SET_PRICE.replace("$price", "42"))
        assert ap1.abort(txn.txn_id)
        assert canonical(ap1.get_axml_document("Shop").document) == pre

    def test_multi_operation_abort_reverse_order(self):
        network, ap1, _ = make_pair()
        pre = canonical(ap1.get_axml_document("Shop").document)
        txn = ap1.begin_transaction()
        ap1.submit(txn.txn_id, SET_PRICE.replace("$price", "42"))
        ap1.submit(txn.txn_id, SET_PRICE.replace("$price", "77"))
        ap1.submit(
            txn.txn_id,
            '<action type="delete"><location>Select i/stock from i in '
            "Shop//item;</location></action>",
        )
        ap1.abort(txn.txn_id)
        assert canonical(ap1.get_axml_document("Shop").document) == pre

    def test_dead_peer_rejects_submissions(self):
        network, ap1, _ = make_pair()
        txn = ap1.begin_transaction()
        network.disconnect("AP1")
        with pytest.raises(PeerDisconnected):
            ap1.submit(txn.txn_id, SET_PRICE.replace("$price", "42"))


class TestRemoteInvocation:
    def test_invoke_and_commit(self):
        network, ap1, ap2 = make_pair()
        txn = ap1.begin_transaction()
        fragments = ap1.invoke(txn.txn_id, "AP2", "setPrice", {"price": "55"})
        assert fragments
        assert "55" in ap2.get_axml_document("Shop2").to_xml()
        ap1.commit(txn.txn_id)
        # participant share committed via CommitMessage: only the outcome stays
        assert ap2.manager.states()[txn.txn_id] is TransactionState.COMMITTED
        assert txn.txn_id not in ap2.manager.contexts
        assert ap2.chain_views() == {} == ap1.chain_views()

    def test_invoke_and_abort_cascades(self):
        network, ap1, ap2 = make_pair()
        pre = canonical(ap2.get_axml_document("Shop2").document)
        txn = ap1.begin_transaction()
        ap1.invoke(txn.txn_id, "AP2", "setPrice", {"price": "55"})
        assert ap1.abort(txn.txn_id)
        assert canonical(ap2.get_axml_document("Shop2").document) == pre

    def test_chain_grows_with_invocations(self):
        network, ap1, ap2 = make_pair()
        txn = ap1.begin_transaction()
        ap1.invoke(txn.txn_id, "AP2", "setPrice", {"price": "55"})
        chain = ap1.chain_views()[txn.txn_id]
        assert chain.children_of("AP1") == ["AP2"]
        # callee received the chain view
        assert ap2.chain_views()[txn.txn_id].contains("AP2")

    def test_no_chain_when_disabled(self):
        network, ap1, ap2 = make_pair(chaining=False)
        txn = ap1.begin_transaction()
        ap1.invoke(txn.txn_id, "AP2", "setPrice", {"price": "55"})
        assert txn.txn_id not in ap2.chain_views()

    def test_service_fault_aborts_participant(self):
        network, ap1, ap2 = make_pair()
        ap2.host_service(
            FunctionService(ServiceDescriptor("boom"), body=_boom)
        )
        txn = ap1.begin_transaction()
        with pytest.raises(ServiceFault):
            ap1.invoke(txn.txn_id, "AP2", "boom", {})
        assert ap1.manager.context(txn.txn_id).is_finished
        assert network.metrics.txn_outcomes[txn.txn_id] == "aborted"

    def test_fault_compensates_earlier_remote_work(self):
        network, ap1, ap2 = make_pair()
        pre = canonical(ap2.get_axml_document("Shop2").document)
        ap2.host_service(
            FunctionService(ServiceDescriptor("boom"), body=_boom)
        )
        txn = ap1.begin_transaction()
        ap1.invoke(txn.txn_id, "AP2", "setPrice", {"price": "55"})
        assert "55" in ap2.get_axml_document("Shop2").to_xml()
        with pytest.raises(ServiceFault):
            ap1.invoke(txn.txn_id, "AP2", "boom", {})
        # AP1 aborted and sent Abort to AP2... but AP2 is the failed peer,
        # which already aborted itself, compensating setPrice too.
        assert canonical(ap2.get_axml_document("Shop2").document) == pre

    def test_forward_recovery_absorb(self):
        network, ap1, ap2 = make_pair()
        ap2.host_service(
            FunctionService(ServiceDescriptor("boom"), body=_boom)
        )
        ap1.set_fault_policy("boom", [FaultPolicy(fault_names={"Boom"}, absorb=True)])
        txn = ap1.begin_transaction()
        assert ap1.invoke(txn.txn_id, "AP2", "boom", {}) == []
        assert network.metrics.get("forward_recoveries") == 1
        ap1.commit(txn.txn_id)

    def test_forward_recovery_hook(self):
        network, ap1, ap2 = make_pair()
        network.disconnect("AP2")
        ap1.set_fault_policy(
            "setPrice",
            [FaultPolicy(fault_names={DISCONNECT_FAULT}, hook=lambda p: ["<cached/>"])],
        )
        txn = ap1.begin_transaction()
        assert ap1.invoke(txn.txn_id, "AP2", "setPrice", {"price": "1"}) == ["<cached/>"]

    def test_disconnected_target_no_policy_aborts(self):
        network, ap1, ap2 = make_pair()
        network.disconnect("AP2")
        txn = ap1.begin_transaction()
        with pytest.raises(PeerDisconnected):
            ap1.invoke(txn.txn_id, "AP2", "setPrice", {"price": "1"})
        assert network.metrics.txn_outcomes[txn.txn_id] == "aborted"

    def test_retry_on_replica(self):
        network, ap1, ap2 = make_pair()
        replication = network.replication
        ap3 = AXMLPeer("AP3", network)
        replication.register_primary("Shop2", "AP2")
        replication.register_service("setPrice", "AP2")
        replication.replicate_document("Shop2", "AP3")
        replication.replicate_service("setPrice", "AP3")
        network.disconnect("AP2")
        ap1.set_fault_policy(
            "setPrice",
            [FaultPolicy(
                fault_names={DISCONNECT_FAULT}, retry_times=1, alternative_peer="AP3"
            )],
        )
        txn = ap1.begin_transaction()
        fragments = ap1.invoke(txn.txn_id, "AP2", "setPrice", {"price": "88"})
        assert fragments
        assert "88" in ap3.get_axml_document("Shop2").to_xml()
        assert network.metrics.get("replica_retries") == 1

    def test_outside_transaction_rejected(self):
        network, ap1, ap2 = make_pair()
        with pytest.raises(TransactionError):
            ap1.invoke("T-unknown", "AP2", "setPrice", {"price": "1"})


class TestPeerIndependent:
    def test_definitions_collected_at_origin(self):
        network, ap1, ap2 = make_pair(peer_independent=True)
        txn = ap1.begin_transaction()
        ap1.invoke(txn.txn_id, "AP2", "setPrice", {"price": "55"})
        ctx = ap1.manager.context(txn.txn_id)
        assert len(ctx.received_compensations) == 1
        provider, plan_xml = ctx.received_compensations[0]
        assert provider == "AP2"
        assert "compensation" in plan_xml

    def test_origin_abort_uses_definitions(self):
        network, ap1, ap2 = make_pair(peer_independent=True)
        pre = canonical(ap2.get_axml_document("Shop2").document)
        txn = ap1.begin_transaction()
        ap1.invoke(txn.txn_id, "AP2", "setPrice", {"price": "55"})
        assert ap1.abort(txn.txn_id)
        assert canonical(ap2.get_axml_document("Shop2").document) == pre
        assert network.metrics.get("peer_independent_compensations") == 1

    def test_provider_dead_no_replica_incomplete(self):
        network, ap1, ap2 = make_pair(peer_independent=True)
        txn = ap1.begin_transaction()
        ap1.invoke(txn.txn_id, "AP2", "setPrice", {"price": "55"})
        network.disconnect("AP2")
        assert not ap1.abort(txn.txn_id)
        assert network.metrics.get("compensation_failures") == 1
        assert network.metrics.txn_outcomes[txn.txn_id] == "abort_incomplete"

    def test_provider_dead_with_replica_completes(self):
        network, ap1, ap2 = make_pair(peer_independent=True)
        replication = network.replication
        ap3 = AXMLPeer("AP3", network, peer_independent=True)
        replication.register_primary("Shop2", "AP2")
        txn = ap1.begin_transaction()
        ap1.invoke(txn.txn_id, "AP2", "setPrice", {"price": "55"})
        # replicate *after* the update so the replica holds the new state,
        # then kill the provider: compensation must run on the replica.
        replication.replicate_document("Shop2", "AP3")
        network.disconnect("AP2")
        assert ap1.abort(txn.txn_id)
        assert network.metrics.get("compensations_via_replica") == 1
        assert "10" in ap3.get_axml_document("Shop2").to_xml()
        assert "55" not in ap3.get_axml_document("Shop2").to_xml()


class TestContinuousWork:
    def test_work_units_cancelled_on_commit(self):
        network, ap1, _ = make_pair()
        txn = ap1.begin_transaction()
        ap1.add_pending_work(txn.txn_id, units=10, unit_duration=0.1)
        ap1.commit(txn.txn_id)
        network.events.run_until(5.0)
        assert network.metrics.get("work_units_done") == 0

    def test_work_units_run_without_cancellation(self):
        network, ap1, _ = make_pair()
        txn = ap1.begin_transaction()
        ap1.add_pending_work(txn.txn_id, units=5, unit_duration=0.1)
        network.events.run_until(5.0)
        assert network.metrics.get("work_units_done") == 5
        assert network.metrics.get("work_units_wasted") == 0

    def test_doomed_work_counts_as_wasted(self):
        network, ap1, _ = make_pair()
        txn = ap1.begin_transaction()
        ap1.add_pending_work(txn.txn_id, units=5, unit_duration=0.1)
        ap1.mark_doomed(txn.txn_id)
        network.events.run_until(5.0)
        assert network.metrics.get("work_units_wasted") == 5
