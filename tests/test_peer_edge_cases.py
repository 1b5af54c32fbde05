"""Edge-case tests for AXMLPeer and the error hierarchy."""

import pytest

import repro.errors as errors
from repro.axml.document import AXMLDocument
from repro.errors import (
    PeerDisconnected,
    ReproError,
    ServiceFault,
    TransactionError,
)
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import FunctionService, UpdateService
from repro.txn.recovery import FaultPolicy
from repro.txn.transaction import TransactionState


def make_pair():
    network = SimNetwork()
    a = AXMLPeer("A", network)
    b = AXMLPeer("B", network)
    b.host_document(AXMLDocument.from_xml("<D><x/></D>", name="D"))
    return network, a, b


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj in (Exception,):
                    continue
                assert issubclass(obj, ReproError), name

    def test_service_fault_carries_name(self):
        fault = ServiceFault("Boom", "details")
        assert fault.fault_name == "Boom"
        assert "details" in str(fault)

    def test_peer_disconnected_carries_peer(self):
        assert PeerDisconnected("AP3").peer_id == "AP3"

    def test_parse_error_position(self):
        err = errors.XmlParseError("bad", line=3, column=7)
        assert "line 3" in str(err)


class TestUnknownService:
    def test_surfaces_as_named_fault(self):
        network, a, b = make_pair()
        txn = a.begin_transaction()
        with pytest.raises(ServiceFault) as exc:
            a.invoke(txn.txn_id, "B", "ghost", {})
        assert exc.value.fault_name == "ServiceNotFound"
        # recovery ran: the caller's context is finished, not dangling
        assert a.manager.contexts[txn.txn_id].is_finished

    def test_handler_can_absorb_it(self):
        network, a, b = make_pair()
        a.set_fault_policy(
            "ghost", [FaultPolicy(fault_names={"ServiceNotFound"}, absorb=True)]
        )
        txn = a.begin_transaction()
        assert a.invoke(txn.txn_id, "B", "ghost", {}) == []
        a.commit(txn.txn_id)

    def test_missing_params_fault(self):
        network, a, b = make_pair()
        b.host_service(
            FunctionService(
                ServiceDescriptor("needs", params=("p",)),
                body=lambda params: [],
            )
        )
        txn = a.begin_transaction()
        with pytest.raises(ServiceFault) as exc:
            a.invoke(txn.txn_id, "B", "needs", {})
        assert exc.value.fault_name == "ServiceError"

    def test_update_error_fault(self):
        network, a, b = make_pair()
        b.host_service(
            UpdateService(
                ServiceDescriptor("ins", target_document="D"),
                '<action type="insert"><data><y/></data>'
                "<location>Select d from d in D//nonexistent;</location></action>",
            )
        )
        txn = a.begin_transaction()
        with pytest.raises(ServiceFault) as exc:
            a.invoke(txn.txn_id, "B", "ins", {})
        assert exc.value.fault_name == "UpdateError"


class TestPeerGuards:
    def test_commit_from_non_origin_rejected(self):
        network, a, b = make_pair()
        b.host_service(
            FunctionService(ServiceDescriptor("s"), body=lambda p: [])
        )
        txn = a.begin_transaction()
        a.invoke(txn.txn_id, "B", "s", {})
        with pytest.raises(TransactionError):
            b.commit(txn.txn_id)

    def test_dead_peer_cannot_begin(self):
        network, a, b = make_pair()
        network.disconnect("A")
        # begin itself is local, but any submit/invoke/commit must fail
        txn = a.begin_transaction()
        with pytest.raises(PeerDisconnected):
            a.invoke(txn.txn_id, "B", "s", {})
        with pytest.raises(PeerDisconnected):
            a.commit(txn.txn_id)
        with pytest.raises(PeerDisconnected):
            a.abort(txn.txn_id)

    def test_missing_document(self):
        network, a, b = make_pair()
        with pytest.raises(ReproError):
            a.get_axml_document("nope")
        assert "nope" not in a.documents
        assert "D" in b.documents

    def test_invoke_on_finished_context_rejected(self):
        network, a, b = make_pair()
        b.host_service(
            FunctionService(ServiceDescriptor("s"), body=lambda p: [])
        )
        txn = a.begin_transaction()
        a.commit(txn.txn_id)
        with pytest.raises(TransactionError):
            a.invoke(txn.txn_id, "B", "s", {})

    def test_abort_message_for_unknown_txn_harmless(self):
        from repro.p2p.messages import AbortMessage

        network, a, b = make_pair()
        b.on_notify(AbortMessage("T-ghost", "A"))

    def test_repr(self):
        network, a, b = make_pair()
        network.disconnect("B")
        assert "disconnected" in repr(b)
        assert "docs=1" in repr(b)


class TestParentWatch:
    def test_orphan_self_aborts(self):
        network = SimNetwork()
        a = AXMLPeer("A", network, parent_watch_interval=0.05)
        b = AXMLPeer("B", network, parent_watch_interval=0.05)
        b.host_document(AXMLDocument.from_xml("<D><x/></D>", name="D"))
        b.host_service(
            UpdateService(
                ServiceDescriptor("ins", target_document="D"),
                '<action type="insert"><data><y/></data>'
                "<location>Select d from d in D;</location></action>",
            )
        )
        txn = a.begin_transaction()
        a.invoke(txn.txn_id, "B", "ins", {})
        assert "<y/>" in b.get_axml_document("D").to_xml()
        network.disconnect("A")
        network.events.run_until(network.clock.now + 1.0)
        # B detected the orphaned state and compensated itself.
        assert b.manager.contexts[txn.txn_id].state is TransactionState.ABORTED
        assert "<y/>" not in b.get_axml_document("D").to_xml()
        assert network.metrics.get("orphan_self_aborts") == 1

    def test_watch_stops_after_commit(self):
        network = SimNetwork()
        a = AXMLPeer("A", network, parent_watch_interval=0.05)
        b = AXMLPeer("B", network, parent_watch_interval=0.05)
        b.host_service(
            FunctionService(ServiceDescriptor("s"), body=lambda p: [])
        )
        txn = a.begin_transaction()
        a.invoke(txn.txn_id, "B", "s", {})
        a.commit(txn.txn_id)
        pings_before = network.metrics.get("pings")
        network.events.run_until(network.clock.now + 2.0)
        assert network.metrics.get("pings") <= pings_before + 1
