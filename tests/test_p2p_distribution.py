"""Integration tests for distributed document fragments (§1)."""

import pytest

from repro.axml.document import AXMLDocument
from repro.errors import P2PError, PeerDisconnected
from repro.p2p.distribution import distribute_fragment, remote_subquery
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.query.parser import parse_select
from repro.xmlstore.serializer import canonical

LIB = (
    "<Lib>"
    "<books><book><title>Sagas</title><year>1987</year></book>"
    "<book><title>ARIES</title><year>1992</year></book></books>"
    "<cds><cd><name>X</name></cd></cds>"
    "</Lib>"
)


@pytest.fixture
def world():
    network = SimNetwork()
    replication = network.replication
    ap1 = AXMLPeer("AP1", network)
    ap2 = AXMLPeer("AP2", network)
    doc = ap1.host_document(AXMLDocument.from_xml(LIB, name="Lib"))
    replication.register_primary("Lib", "AP1")
    return network, ap1, ap2, doc


class TestDistributeFragment:
    def test_subtree_moves(self, world):
        network, ap1, ap2, doc = world
        placement = distribute_fragment(ap1, "Lib", "//books", ap2)
        assert "Sagas" not in doc.to_xml()
        fragment = ap2.get_axml_document(placement.fragment_document)
        assert "Sagas" in fragment.to_xml()
        assert fragment.document.root.name.local == "books"

    def test_placeholder_call_in_place(self, world):
        network, ap1, ap2, doc = world
        distribute_fragment(ap1, "Lib", "//books", ap2)
        calls = doc.service_calls()
        assert len(calls) == 1
        assert calls[0].result_name == "books"
        assert calls[0].peer_hint == "AP2"
        # the placeholder sits where the subtree was (first child)
        assert doc.document.root.child_elements()[0].name.local == "sc"

    def test_requires_unique_match(self, world):
        network, ap1, ap2, doc = world
        with pytest.raises(P2PError):
            distribute_fragment(ap1, "Lib", "//book", ap2)  # two matches
        with pytest.raises(P2PError):
            distribute_fragment(ap1, "Lib", "//ghost", ap2)  # none

    def test_cannot_distribute_root(self, world):
        network, ap1, ap2, doc = world
        with pytest.raises(P2PError):
            distribute_fragment(ap1, "Lib", "Lib", ap2)

    def test_registered_with_replication(self, world):
        network, ap1, ap2, doc = world
        placement = distribute_fragment(ap1, "Lib", "//books", ap2)
        assert network.directory.document_holders(placement.fragment_document) == ["AP2"]


class TestFragmentCopy:
    """Option (b): copy the fragment over, evaluate locally."""

    def test_lazy_copy_on_demand(self, world):
        network, ap1, ap2, doc = world
        distribute_fragment(ap1, "Lib", "//books", ap2)
        txn = ap1.begin_transaction()
        outcome = ap1.submit(
            txn.txn_id,
            '<action type="query"><location>Select b/title from b in '
            "Lib//book;</location></action>",
        )
        assert sorted(outcome.query_result.texts()) == ["ARIES", "Sagas"]
        assert "Sagas" in doc.to_xml()

    def test_unrelated_query_does_not_copy(self, world):
        network, ap1, ap2, doc = world
        distribute_fragment(ap1, "Lib", "//books", ap2)
        txn = ap1.begin_transaction()
        outcome = ap1.submit(
            txn.txn_id,
            '<action type="query"><location>Select c/name from c in Lib//cd;'
            "</location></action>",
        )
        assert outcome.query_result.texts() == ["X"]
        assert "Sagas" not in doc.to_xml()  # fragment never fetched

    def test_copy_compensated_on_abort(self, world):
        network, ap1, ap2, doc = world
        distribute_fragment(ap1, "Lib", "//books", ap2)
        pre = canonical(doc.document)
        txn = ap1.begin_transaction()
        ap1.submit(
            txn.txn_id,
            '<action type="query"><location>Select b/title from b in '
            "Lib//book;</location></action>",
        )
        ap1.abort(txn.txn_id)
        assert canonical(doc.document) == pre

    def test_fragment_host_down(self, world):
        network, ap1, ap2, doc = world
        distribute_fragment(ap1, "Lib", "//books", ap2)
        network.disconnect("AP2")
        txn = ap1.begin_transaction()
        with pytest.raises(PeerDisconnected):
            ap1.submit(
                txn.txn_id,
                '<action type="query"><location>Select b/title from b in '
                "Lib//book;</location></action>",
            )


class TestRemoteSubquery:
    """Option (a): ship the sub-query to the fragment's host."""

    def test_results_come_back(self, world):
        network, ap1, ap2, doc = world
        placement = distribute_fragment(ap1, "Lib", "//books", ap2)
        txn = ap1.begin_transaction()
        subquery = parse_select(
            f"Select b/title from b in {placement.fragment_document}//book "
            "where b/year > 1990;"
        )
        fragments = remote_subquery(ap1, txn.txn_id, placement, subquery)
        assert fragments == ["<title>ARIES</title>"]

    def test_local_document_untouched(self, world):
        network, ap1, ap2, doc = world
        placement = distribute_fragment(ap1, "Lib", "//books", ap2)
        pre = canonical(doc.document)
        txn = ap1.begin_transaction()
        subquery = parse_select(
            f"Select b from b in {placement.fragment_document}//book;"
        )
        remote_subquery(ap1, txn.txn_id, placement, subquery)
        assert canonical(doc.document) == pre
        # nothing to compensate locally
        assert ap1.manager.log.entries_for(txn.txn_id) == []

    def test_wrong_document_rejected(self, world):
        network, ap1, ap2, doc = world
        placement = distribute_fragment(ap1, "Lib", "//books", ap2)
        txn = ap1.begin_transaction()
        with pytest.raises(P2PError):
            remote_subquery(
                ap1, txn.txn_id, placement, parse_select("Select b from b in Other//x;")
            )

    def test_enlists_fragment_peer(self, world):
        network, ap1, ap2, doc = world
        placement = distribute_fragment(ap1, "Lib", "//books", ap2)
        txn = ap1.begin_transaction()
        remote_subquery(
            ap1,
            txn.txn_id,
            placement,
            parse_select(f"Select b from b in {placement.fragment_document}//book;"),
        )
        assert ap1.chain_views()[txn.txn_id].contains("AP2")
