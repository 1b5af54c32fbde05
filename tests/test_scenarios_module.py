"""Unit tests for the canonical deployments (Cluster.atplist/fig1/fig2/
from_topology over the repro.sim.scenarios data)."""

from repro.api import Cluster
from repro.sim.scenarios import FIG1_TOPOLOGY, FIG2_TOPOLOGY


class TestAtplistBuilder:
    def test_document_matches_paper(self):
        scenario = Cluster.atplist()
        doc = scenario.peer("AP1").get_axml_document("ATPList")
        xml = doc.to_xml()
        assert "Federer" in xml and "Nadal" in xml
        assert xml.count("axml:sc") >= 2
        assert "475" in xml  # previous getPoints result
        assert 'year="2003"' in xml and 'year="2004"' in xml

    def test_services_on_right_peers(self):
        scenario = Cluster.atplist()
        assert scenario.peer("AP2").registry.has("getPoints")
        assert scenario.peer("AP3").registry.has("getGrandSlamsWonbyYear")
        assert not scenario.peer("AP1").registry.has("getPoints")


class TestTopologyBuilder:
    def test_fig1_peers_and_services(self):
        scenario = Cluster.fig1()
        assert set(scenario.peers) == {f"AP{i}" for i in range(1, 7)}
        for index in range(1, 7):
            peer = scenario.peer(f"AP{index}")
            assert peer.registry.has(f"S{index}")
            assert f"D{index}" in peer.documents

    def test_fig2_super_peer(self):
        scenario = Cluster.fig2()
        assert scenario.peer("AP1").super_peer
        assert not scenario.peer("AP2").super_peer

    def test_extra_peers_idle(self):
        scenario = Cluster.fig2(extra_peers=("APX",))
        assert "APX" in scenario.peers
        assert len(scenario.peer("APX").registry) == 1  # its own SX service

    def test_replication_registered(self):
        scenario = Cluster.fig1()
        assert scenario.network.directory.document_holders("D3") == ["AP3"]
        assert scenario.network.directory.service_holders("S3") == ["AP3"]

    def test_flags_propagate(self):
        scenario = Cluster.from_topology(
            FIG2_TOPOLOGY,
            chaining=False,
            chain_scope="extended",
            parent_watch_interval=0.1,
        )
        peer = scenario.peer("AP2")
        assert not peer.chaining
        assert peer.chain_scope == "extended"
        assert peer.parent_watch_interval == 0.1

    def test_topology_copy_stored(self):
        scenario = Cluster.fig1()
        assert scenario.topology == FIG1_TOPOLOGY
        scenario.topology["AP1"] = []
        assert FIG1_TOPOLOGY["AP1"]  # original untouched


class TestRunRootTransaction:
    def test_returns_error_object(self):
        scenario = Cluster.fig1()
        scenario.injector.fault_service("AP2", "S2", "X")
        txn, error = scenario.run_topology()
        assert error is not None
        assert txn.txn.origin_peer == "AP1"

    def test_custom_root(self):
        # run_topology always starts at AP1; another root is a session's
        # transaction invoking that peer's topology children.
        scenario = Cluster.fig1()
        txn = scenario.session("AP3").transaction()
        for child, method in scenario.topology["AP3"]:
            txn.invoke(child, method, {})
        # AP3's branch ran: AP4 and AP5/AP6 have markers
        assert '<entry by="AP4"/>' in scenario.peer("AP4").get_axml_document("D4").to_xml()

    def test_metrics_shared(self):
        scenario = Cluster.fig1()
        scenario.run_topology()
        assert scenario.metrics is scenario.network.metrics
        assert scenario.metrics.get("invocations") == 5
