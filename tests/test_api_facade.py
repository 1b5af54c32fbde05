"""The repro.api facade: cluster building and Transaction
context-manager semantics."""

import pytest

from repro.api import Cluster
from repro.errors import ReproError
from repro.outcome import Outcome


class TestClusterBuilding:
    def test_host_document_from_xml_text(self):
        cluster = Cluster()
        cluster.add_peer("AP1")
        doc = cluster.host_document("AP1", "<D><x/></D>", name="D")
        assert cluster.peer("AP1").get_axml_document("D") is doc
        assert cluster.network.directory.document_holders("D") == ["AP1"]

    def test_cluster_reads_its_networks_services(self):
        cluster = Cluster()
        assert cluster.replication is cluster.network.replication
        assert cluster.injector is cluster.network.injector

    def test_host_document_text_requires_name(self):
        cluster = Cluster()
        cluster.add_peer("AP1")
        with pytest.raises(ValueError):
            cluster.host_document("AP1", "<D/>")

    def test_unknown_peer_fails_fast(self):
        cluster = Cluster()
        with pytest.raises(KeyError):
            cluster.peer("ghost")
        with pytest.raises(KeyError):
            cluster.session("ghost")


class TestTransactionContextManager:
    def _cluster(self):
        cluster = Cluster()
        cluster.add_peer("AP1")
        cluster.host_document("AP1", "<Shop><items/></Shop>", name="Shop")
        return cluster

    INSERT = (
        '<action type="insert"><data><item/></data>'
        "<location>Select s from s in Shop//items;</location></action>"
    )

    def test_clean_exit_commits(self):
        cluster = self._cluster()
        with cluster.session("AP1").transaction() as txn:
            txn.submit(self.INSERT)
        assert cluster.peer("AP1").manager.live_context(txn.txn_id) is None
        doc = cluster.peer("AP1").get_axml_document("Shop")
        assert "<item/>" in doc.to_xml()

    def test_exception_aborts_and_propagates(self):
        cluster = self._cluster()
        doc = cluster.peer("AP1").get_axml_document("Shop")
        with pytest.raises(RuntimeError, match="boom"):
            with cluster.session("AP1").transaction() as txn:
                txn.submit(self.INSERT)
                raise RuntimeError("boom")
        assert cluster.peer("AP1").manager.live_context(txn.txn_id) is None
        assert "<item/>" not in doc.to_xml()  # compensation undid the insert

    def test_explicit_finish_wins_over_exit(self):
        cluster = self._cluster()
        with cluster.session("AP1").transaction() as txn:
            txn.submit(self.INSERT)
            txn.abort()
        doc = cluster.peer("AP1").get_axml_document("Shop")
        assert "<item/>" not in doc.to_xml()

    def test_invoke_returns_unified_outcome(self):
        cluster = Cluster.atplist()
        with cluster.session("AP1").transaction() as txn:
            outcome = txn.invoke(
                "AP2", "getPoints", {"name": "Roger Federer"}
            )
        assert isinstance(outcome, Outcome)
        assert outcome.provider_peer == "AP2"
        assert any("890" in f for f in outcome.fragments)

    def test_invoke_unknown_service_raises(self):
        cluster = self._cluster()
        cluster.add_peer("AP2")
        with pytest.raises(ReproError):
            with cluster.session("AP1").transaction() as txn:
                txn.invoke("AP2", "ghost", {})
        assert cluster.peer("AP1").manager.live_context(txn.txn_id) is None
