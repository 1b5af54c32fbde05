"""Integration tests for the paper's canonical scenarios (Fig. 1/Fig. 2,
ATPList) — the executable form of the paper's worked examples."""

import pytest

from repro.api import Cluster
from repro.errors import PeerDisconnected, ServiceFault
from repro.query.parser import parse_action
from repro.sim.scenarios import (
    ATPLIST_XML,
    QUERY_A,
    QUERY_B,
)
from repro.txn.recovery import DISCONNECT_FAULT, FaultPolicy
from repro.xmlstore.serializer import canonical


def doc_xml(scenario, peer_id):
    return scenario.peer(peer_id).get_axml_document(f"D{peer_id[2:]}").to_xml()


class TestATPListScenario:
    """§3.1's worked examples, running on three real peers."""

    def test_query_a_materializes_only_grandslams(self):
        s = Cluster.atplist()
        ap1 = s.peer("AP1")
        txn = ap1.begin_transaction()
        outcome = ap1.submit(txn.txn_id, f'<action type="query"><location>{QUERY_A}</location></action>')
        assert outcome.materialization.methods() == ["getGrandSlamsWonbyYear"]
        xml = ap1.get_axml_document("ATPList").to_xml()
        assert "2005" in xml and "475" in xml  # points untouched

    def test_query_b_materializes_only_points(self):
        s = Cluster.atplist()
        ap1 = s.peer("AP1")
        txn = ap1.begin_transaction()
        outcome = ap1.submit(txn.txn_id, f'<action type="query"><location>{QUERY_B}</location></action>')
        assert outcome.materialization.methods() == ["getPoints"]
        xml = ap1.get_axml_document("ATPList").to_xml()
        assert "890" in xml and "475" not in xml

    def test_query_abort_compensates_materialization(self):
        s = Cluster.atplist()
        ap1 = s.peer("AP1")
        pre = canonical(ap1.get_axml_document("ATPList").document)
        txn = ap1.begin_transaction()
        ap1.submit(txn.txn_id, f'<action type="query"><location>{QUERY_B}</location></action>')
        assert "890" in ap1.get_axml_document("ATPList").to_xml()
        ap1.abort(txn.txn_id)
        assert canonical(ap1.get_axml_document("ATPList").document) == pre

    def test_paper_delete_and_abort(self):
        s = Cluster.atplist()
        ap1 = s.peer("AP1")
        pre = canonical(ap1.get_axml_document("ATPList").document)
        txn = ap1.begin_transaction()
        ap1.submit(
            txn.txn_id,
            '<action type="delete"><location>Select p/citizenship from p in '
            "ATPList//player where p/name/lastname = Federer;</location></action>",
        )
        assert "Swiss" not in ap1.get_axml_document("ATPList").to_xml()
        ap1.abort(txn.txn_id)
        assert canonical(ap1.get_axml_document("ATPList").document) == pre

    def test_remote_peers_enlisted_by_materialization(self):
        s = Cluster.atplist()
        ap1 = s.peer("AP1")
        txn = ap1.begin_transaction()
        ap1.submit(txn.txn_id, f'<action type="query"><location>{QUERY_B}</location></action>')
        # getPoints lives on AP2: the chain shows the enlistment.
        assert ap1.chain_views()[txn.txn_id].contains("AP2")


class TestFig1NestedRecovery:
    """§3.2's protocol walk-through, steps 1-4."""

    def test_happy_path_all_work_done(self):
        s = Cluster.fig1()
        txn, err = s.run_topology()
        assert err is None
        for peer_id in ("AP2", "AP3", "AP4", "AP5", "AP6"):
            assert f'<entry by="{peer_id}"/>' in doc_xml(s, peer_id)
        s.peer("AP1").commit(txn.txn_id)
        assert s.metrics.txn_outcomes[txn.txn_id] == "committed"

    def test_ap5_failure_aborts_whole_transaction(self):
        s = Cluster.fig1()
        s.injector.fault_service("AP5", "S5", "Crash", point="after_execute")
        txn, err = s.run_topology()
        assert isinstance(err, ServiceFault)
        # every peer's share compensated (empty items again)
        for peer_id in s.peers:
            assert "<entry" not in doc_xml(s, peer_id)
        assert s.metrics.txn_outcomes[txn.txn_id] == "aborted"

    def test_abort_messages_reach_invoked_peers(self):
        s = Cluster.fig1()
        s.injector.fault_service("AP5", "S5", "Crash", point="after_execute")
        s.run_topology()
        # AP5 -> AP6; AP3 -> AP4; AP1 -> AP2 (three Abort notifications)
        assert s.metrics.get("messages.abort") == 3
        assert s.metrics.get("aborts_received") == 3

    def test_fault_handler_at_ap3_stops_propagation(self):
        s = Cluster.fig1()
        s.injector.fault_service("AP5", "S5", "Crash", point="after_execute")
        s.peer("AP3").set_fault_policy(
            "S5", [FaultPolicy(fault_names={"Crash"}, retry_times=2)]
        )
        txn, err = s.run_topology()
        assert err is None
        assert s.metrics.get("forward_recoveries") == 1
        # AP1, AP2, AP3 never aborted — undo only as much as required.
        assert '<entry by="AP3"/>' in doc_xml(s, "AP3")
        assert '<entry by="AP2"/>' in doc_xml(s, "AP2")

    def test_unmatched_fault_name_propagates(self):
        s = Cluster.fig1()
        s.injector.fault_service("AP5", "S5", "Crash", point="after_execute")
        s.peer("AP3").set_fault_policy(
            "S5", [FaultPolicy(fault_names={"OtherFault"}, retry_times=5)]
        )
        txn, err = s.run_topology()
        assert isinstance(err, ServiceFault)

    def test_exhausted_retries_fall_back_to_backward(self):
        s = Cluster.fig1()
        # Two faults in a row (one per point) outlast the one retry.
        s.injector.fault_service("AP5", "S5", "Crash", point="before_execute")
        s.injector.fault_service("AP5", "S5", "Crash", point="after_execute")
        s.peer("AP3").set_fault_policy(
            "S5", [FaultPolicy(fault_names={"Crash"}, retry_times=1)]
        )
        txn, err = s.run_topology()
        assert isinstance(err, ServiceFault)
        assert s.metrics.get("forward_recoveries") == 0
        assert "<entry" not in doc_xml(s, "AP3")

    def test_forward_cost_lower_than_backward(self):
        """§3.2: forward recovery 'undoes only as much as required'."""
        forward = Cluster.fig1()
        forward.injector.fault_service("AP5", "S5", "Crash", point="after_execute")
        forward.peer("AP3").set_fault_policy(
            "S5", [FaultPolicy(fault_names={"Crash"}, retry_times=1)]
        )
        forward.run_topology()
        backward = Cluster.fig1()
        backward.injector.fault_service("AP5", "S5", "Crash", point="after_execute")
        backward.run_topology()
        forward_comp = sum(
            p.manager.compensation_cost for p in forward.peers.values()
        )
        backward_comp = sum(
            p.manager.compensation_cost for p in backward.peers.values()
        )
        assert forward_comp < backward_comp


class TestFig2Chain:
    def test_chain_text_matches_paper(self):
        s = Cluster.fig2()
        txn, err = s.run_topology()
        assert err is None
        # AP5 is a leaf: its chain view is complete by invocation time.
        chain = s.peer("AP5").chain_views()[txn.txn_id]
        assert chain.to_text() == "[AP1* -> AP2 -> [AP3 -> AP6] || [AP4 -> AP5]]"

    def test_super_peer_flag_propagates(self):
        s = Cluster.fig2()
        txn, _ = s.run_topology()
        chain = s.peer("AP5").chain_views()[txn.txn_id]
        assert chain.to_text().startswith("[AP1* -> AP2 -> ")
