"""Unit tests for the case (a)/(b) recovery steps, driven directly on
the peer, beyond the integration coverage in test_disconnection_cases."""

import pytest

from repro.api import Cluster
from repro.errors import PeerDisconnected
from repro.p2p.messages import RedirectedResult


class TestCaseAReport:
    def test_report_fields_on_backward(self):
        scenario = Cluster.fig2()
        scenario.run_topology()
        scenario.network.disconnect("AP6")
        disconnections = scenario.metrics.get("disconnections")
        parent = scenario.peer("AP3")
        txn = parent.begin_transaction()
        with pytest.raises(PeerDisconnected):
            parent.invoke(txn.txn_id, "AP6", "S6", {})
        # AP6 was already dead before: invoking it counts no new disconnection.
        assert scenario.metrics.get("disconnections") == disconnections


class TestCaseBReport:
    def test_reuse_counted(self):
        scenario = Cluster.fig2(extra_peers=("APX",))
        scenario.replication.replicate_service("S3", "APX")
        scenario.replication.replicate_document("D3", "APX")
        scenario.injector.disconnect_peer_during("AP3", "AP6", "S6", "after_local_work")
        txn, _ = scenario.run_topology()
        grandparent = scenario.peer("AP2")
        # run_root left AP2's context aborted (backward recovery ran);
        # start a new transaction to drive the replacement invocation.
        txn2 = grandparent.begin_transaction()
        # redirect the held results again, to the new transaction
        for method, fragments in grandparent.take_redirected(txn.txn_id).items():
            grandparent.on_notify(
                RedirectedResult(txn2.txn_id, "AP6", "AP3", method, fragments, [])
            )
        reused = grandparent.take_redirected(txn2.txn_id)
        assert len(reused) >= 1
        # The replacement recovers, passing the orphan's results along.
        grandparent.invoke(txn2.txn_id, "APX", "S3", {}, reused_fragments=reused)

    def test_unrecoverable_when_replacement_dead(self):
        scenario = Cluster.fig2(extra_peers=("APX",))
        scenario.injector.disconnect_peer_during("AP3", "AP6", "S6", "after_local_work")
        scenario.run_topology()
        scenario.network.disconnect("APX")
        grandparent = scenario.peer("AP2")
        txn2 = grandparent.begin_transaction()
        with pytest.raises(PeerDisconnected):
            grandparent.invoke(
                txn2.txn_id, "APX", "S3", {},
                reused_fragments=grandparent.take_redirected(txn2.txn_id),
            )
