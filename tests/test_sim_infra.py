"""Unit tests for the simulation infrastructure: rng, metrics, workload,
harness, extended chain relations, replication, peer-independent ledger."""

import pytest

from repro.errors import P2PError
from repro.p2p.chain import PeerChain
from repro.sim.harness import ExperimentTable, mean, ratio
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import SeededRng, stable_seed
from repro.sim.workload import (
    OperationMix,
    generate_catalogue,
    generate_invocation_tree,
    generate_operation,
    generate_participant_sets,
    tree_peers,
)


class TestSeededRng:
    def test_deterministic(self):
        a, b = SeededRng(42), SeededRng(42)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
        assert a.randint(0, 100) == b.randint(0, 100)

    def test_different_seeds_differ(self):
        assert SeededRng(1).random() != SeededRng(2).random()

    def test_coin_extremes(self):
        rng = SeededRng(0)
        assert not any(rng.coin(0.0) for _ in range(20))
        assert all(rng.coin(1.0) for _ in range(20))

    def test_fork_independent(self):
        # Independent per-peer streams are derived with stable_seed.
        child = SeededRng(stable_seed(7, "AP1"))
        assert child.random() != SeededRng(7).random()

    def test_sample_and_choice(self):
        rng = SeededRng(3)
        items = list(range(10))
        sample = rng.sample(items, 3)
        assert len(sample) == 3 and len(set(sample)) == 3
        assert rng.choice(items) in items


class TestMetrics:
    def test_counters(self):
        metrics = MetricsCollector()
        metrics.incr("x")
        metrics.incr("x", 2)
        assert metrics.get("x") == 3
        assert metrics.get("missing") == 0

    def test_message_recording(self):
        metrics = MetricsCollector()
        metrics.record_message("ping")
        metrics.record_message("ping")
        assert metrics.get("messages") == 2
        assert metrics.get("messages.ping") == 2

    def test_detection_latency(self):
        metrics = MetricsCollector()
        metrics.record_detection("P", "Q", 1.0, 1.5)
        metrics.record_detection("P", "R", 1.0, 1.2)
        assert metrics.detection_latency("P") == pytest.approx(0.2)
        assert metrics.detection_latency("ghost") is None

    def test_outcome_counts(self):
        metrics = MetricsCollector()
        metrics.record_txn_outcome("T1", "committed")
        metrics.record_txn_outcome("T2", "aborted")
        metrics.record_txn_outcome("T3", "committed")
        assert metrics.outcome_counts() == {"committed": 2, "aborted": 1}

    def test_snapshot_is_copy(self):
        metrics = MetricsCollector()
        metrics.incr("x")
        snap = metrics.snapshot()
        metrics.incr("x")
        assert snap["x"] == 1


class TestWorkload:
    def test_catalogue_deterministic(self):
        from repro.xmlstore.serializer import canonical

        a = generate_catalogue(SeededRng(5), 10, name="C")
        b = generate_catalogue(SeededRng(5), 10, name="C")
        assert canonical(a.document) == canonical(b.document)

    def test_catalogue_has_skus(self):
        doc = generate_catalogue(SeededRng(5), 4, name="C")
        skus = [
            e.text_content()
            for e in doc.document.iter_elements()
            if e.name.local == "sku"
        ]
        assert skus == ["0", "1", "2", "3"]

    def test_call_density(self):
        doc = generate_catalogue(SeededRng(5), 30, name="C", call_density=1.0)
        assert len(doc.service_calls()) == 30
        doc0 = generate_catalogue(SeededRng(5), 30, name="C", call_density=0.0)
        assert len(doc0.service_calls()) == 0

    def test_mix_extremes(self):
        from repro.query.ast import ActionType

        rng = SeededRng(1)
        doc = generate_catalogue(rng, 5, name="C")
        only_q = OperationMix(0, 0, 0, 1)
        for _ in range(10):
            assert generate_operation(rng, doc, only_q).action_type is ActionType.QUERY

    def test_selective_targets_one_item(self):
        from repro.query.update import apply_action

        rng = SeededRng(2)
        doc = generate_catalogue(rng, 20, name="C")
        action = generate_operation(rng, doc, OperationMix(0, 1, 0, 0), selective=True)
        result = apply_action(doc.document, action)
        assert len(result.records) <= 1

    def test_invocation_tree_valid(self):
        rng = SeededRng(4)
        topology = generate_invocation_tree(rng, depth=3, fanout=3)
        peers = tree_peers(topology)
        assert peers[0] == "AP1"
        assert len(peers) == len(set(peers))
        # every child's parent appears in the topology keys or as a leaf
        for parent, children in topology.items():
            assert parent in peers
            for child, method in children:
                assert child in peers
                assert method == f"S{child[2:]}"

    def test_participant_sets_bounds(self):
        rng = SeededRng(6)
        sets = generate_participant_sets(rng, [f"P{i}" for i in range(10)], 20)
        assert len(sets) == 20
        assert all(2 <= len(s) <= 6 for s in sets)


class TestHarness:
    def test_table_render(self):
        table = ExperimentTable("T", ["a", "b"])
        table.add_row(a=1, b=2.5)
        table.add_row(a="x", b=None)
        table.add_note("n")
        text = table.render()
        assert "== T ==" in text
        assert "2.5" in text
        assert "-" in text  # None renders as a dash
        assert "note: n" in text

    def test_non_finite_rows_rejected(self):
        table = ExperimentTable("T", ["a"])
        with pytest.raises(ValueError):
            table.add_row(a=float("inf"))
        with pytest.raises(ValueError):
            table.add_row(a=float("nan"))
        assert table.rows == []

    def test_unknown_column_rejected(self):
        table = ExperimentTable("T", ["a"])
        with pytest.raises(ValueError):
            table.add_row(zzz=1)

    def test_ratio(self):
        assert ratio(4, 2) == 2
        assert ratio(0, 0) == 1.0
        # x/0 is undefined, not infinite: None keeps JSON exports strict.
        assert ratio(3, 0) is None

    def test_mean(self):
        assert mean([1, 2, 3]) == 2
        assert mean([]) == 0.0


class TestExtendedChain:
    def chain(self):
        chain = PeerChain("R")
        chain.add_invocation("R", "A", False)
        chain.add_invocation("R", "B", False)
        chain.add_invocation("A", "A1", False)
        chain.add_invocation("A", "A2", False)
        chain.add_invocation("B", "B1", False)
        return chain

    def test_uncles(self):
        chain = self.chain()
        assert chain.uncles_of("A1") == ["B"]
        assert chain.uncles_of("A") == []
        assert chain.uncles_of("R") == []

    def test_cousins(self):
        chain = self.chain()
        assert chain.cousins_of("A1") == ["B1"]
        assert chain.cousins_of("B1") == ["A1", "A2"]

    def test_relatives_immediate(self):
        chain = self.chain()
        assert set(chain.relatives_of("A", "immediate")) == {"R", "A1", "A2", "B"}

    def test_relatives_extended(self):
        chain = self.chain()
        relatives = set(chain.relatives_of("A1", "extended"))
        assert relatives == {"A", "A2", "R", "B", "B1"}

    def test_bad_scope(self):
        with pytest.raises(P2PError):
            self.chain().relatives_of("A", "galactic")


class TestReplication:
    def test_replicate_document_preserves_ids(self):
        from repro.axml.document import AXMLDocument
        from repro.p2p.network import SimNetwork
        from repro.p2p.peer import AXMLPeer

        network = SimNetwork()
        a = AXMLPeer("A", network)
        b = AXMLPeer("B", network)
        replication = network.replication
        doc = a.host_document(AXMLDocument.from_xml("<D><x>1</x></D>", name="D"))
        replication.register_primary("D", "A")
        replica = replication.replicate_document("D", "B")
        x_id = doc.document.root.child_elements()[0].node_id
        assert replica.document.has_node(x_id)
        assert replication.directory.document_holders("D") == ["A", "B"]

    def test_replicate_missing_document(self):
        from repro.p2p.network import SimNetwork

        with pytest.raises(P2PError):
            SimNetwork().replication.replicate_document("ghost", "B")


class TestPeerIndependentLedger:
    @staticmethod
    def _dispatch(network, definitions):
        """The §3.2 dispatch as the origin "O" of "T1" wires it."""
        from repro.p2p.messages import CompensationRequest
        from repro.txn.peer_independent import dispatch_compensations

        return dispatch_compensations(
            definitions,
            send=lambda peer_id, plan_xml: network.notify(
                "O", peer_id, CompensationRequest("T1", plan_xml, "O")
            ),
            replica_holders=network.directory.document_holders,
            count=network.metrics.incr,
        )

    def test_dispatch_falls_back_to_replica(self):
        from repro.axml.document import AXMLDocument
        from repro.p2p.network import SimNetwork
        from repro.p2p.peer import AXMLPeer
        from repro.txn.compensation import CompensationPlan

        network = SimNetwork()
        AXMLPeer("O", network)
        provider = AXMLPeer("P", network)
        AXMLPeer("R", network)
        replication = network.replication
        provider.host_document(AXMLDocument.from_xml("<D><x/></D>", name="D"))
        replication.register_primary("D", "P")
        replication.replicate_document("D", "R")
        network.disconnect("P")
        assert self._dispatch(network, [("P", CompensationPlan("D").to_xml())])
        assert network.metrics.get("compensations_via_replica") == 1
        assert network.metrics.get("peer_independent_compensations") == 1

    def test_dispatch_failure_counted(self):
        from repro.p2p.network import SimNetwork
        from repro.p2p.peer import AXMLPeer
        from repro.txn.compensation import CompensationPlan

        network = SimNetwork()
        AXMLPeer("O", network)
        AXMLPeer("P", network)
        network.disconnect("P")
        assert not self._dispatch(network, [("P", CompensationPlan("D").to_xml())])
        assert network.metrics.get("compensation_failures") == 1

    def test_abort_on_a_bare_network_with_its_provider_gone(self):
        from repro.axml.document import AXMLDocument
        from repro.p2p.network import SimNetwork
        from repro.p2p.peer import AXMLPeer
        from repro.services.descriptor import ServiceDescriptor
        from repro.services.service import UpdateService

        network = SimNetwork()
        origin = AXMLPeer("O", network, peer_independent=True)
        provider = AXMLPeer("P", network, peer_independent=True)
        provider.host_document(AXMLDocument.from_xml("<D><s/></D>", name="D"))
        provider.host_service(UpdateService(
            ServiceDescriptor("book", target_document="D"),
            '<action type="insert"><data><x/></data>'
            "<location>Select s from s in D//s;</location></action>",
        ))
        txn = origin.begin_transaction()
        origin.invoke(txn.txn_id, "P", "book", {})
        network.disconnect("P")
        assert not origin.abort(txn.txn_id)
        assert network.metrics.get("compensation_failures") == 1
        assert network.metrics.get("compensations_via_replica") == 0
