"""Unit tests for the disconnection scenario drivers
(repro.txn.disconnection) beyond the integration coverage."""

import pytest

from repro.api import Cluster
from repro.p2p.messages import RedirectedResult
from repro.txn.disconnection import (
    CaseReport,
    run_case_a_leaf_disconnection,
    run_case_b_parent_disconnection,
)
from repro.txn.recovery import DISCONNECT_FAULT, FaultPolicy


class TestCaseReport:
    def test_defaults(self):
        report = CaseReport("a", "AP6", "AP3")
        assert report.detection_latency is None
        assert report.work_reused == 0
        assert not report.recovered


class TestCaseAReport:
    def test_report_fields_on_backward(self):
        scenario = Cluster.fig2()
        scenario.run_topology()
        scenario.network.disconnect("AP6")
        parent = scenario.peer("AP3")
        txn = parent.begin_transaction()
        report = run_case_a_leaf_disconnection(parent, txn.txn_id, "AP6", "S6")
        assert report.case == "a"
        assert report.disconnected_peer == "AP6"
        assert report.detected_by == "AP3"
        assert not report.recovered
        assert "disconnections" not in report.metrics  # already dead before

    def test_metrics_delta_only(self):
        scenario = Cluster.fig2()
        scenario.metrics.incr("messages", 100)  # pre-existing noise
        scenario.network.disconnect("AP6")
        parent = scenario.peer("AP3")
        txn = parent.begin_transaction()
        report = run_case_a_leaf_disconnection(parent, txn.txn_id, "AP6", "S6")
        # the delta excludes the pre-existing 100
        assert report.metrics.get("messages", 0) < 100


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
        report = run_case_b_parent_disconnection(
            grandparent, txn2.txn_id, "AP3", "APX", "S3"
        )
        assert report.case == "b"
        assert report.recovered
        assert report.work_reused >= 1

    def test_unrecoverable_when_replacement_dead(self):
        scenario = Cluster.fig2(extra_peers=("APX",))
        scenario.injector.disconnect_peer_during("AP3", "AP6", "S6", "after_local_work")
        scenario.run_topology()
        scenario.network.disconnect("APX")
        grandparent = scenario.peer("AP2")
        txn2 = grandparent.begin_transaction()
        report = run_case_b_parent_disconnection(
            grandparent, txn2.txn_id, "AP3", "APX", "S3"
        )
        assert not report.recovered
