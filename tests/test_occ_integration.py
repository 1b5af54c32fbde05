"""Integration of optimistic validation with peers/managers."""

import pytest

from repro.axml.document import AXMLDocument
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.txn.occ import ValidationConflict
from repro.xmlstore.serializer import canonical

REPLACE = (
    '<action type="replace"><data><price>{v}</price></data>'
    "<location>Select i/price from i in Shop//item;</location></action>"
)
QUERY = (
    '<action type="query"><location>Select i/price from i in Shop//item;'
    "</location></action>"
)


@pytest.fixture
def peer():
    network = SimNetwork()
    p = AXMLPeer("AP1", network, occ=True)
    p.host_document(
        AXMLDocument.from_xml("<Shop><item><price>10</price></item></Shop>", name="Shop")
    )
    return p


class TestOccOnPeer:
    def test_serial_transactions_commit(self, peer):
        for value in (11, 12, 13):
            txn = peer.begin_transaction()
            peer.submit(txn.txn_id, REPLACE.format(v=value))
            peer.commit(txn.txn_id)
        assert "13" in peer.get_axml_document("Shop").to_xml()

    def test_stale_reader_aborts_and_compensates(self, peer):
        reader = peer.begin_transaction()
        writer = peer.begin_transaction()
        peer.submit(reader.txn_id, QUERY)           # reader reads price
        peer.submit(writer.txn_id, REPLACE.format(v=50))
        peer.submit(reader.txn_id, REPLACE.format(v=70))  # reader also writes
        peer.commit(writer.txn_id)                  # first committer wins
        with pytest.raises(ValidationConflict):
            peer.commit(reader.txn_id)
        # the loser's write was compensated away; the winner's stands
        text = peer.get_axml_document("Shop").to_xml()
        assert "50" in text and "70" not in text
        assert peer.manager.contexts[reader.txn_id].is_finished

    def test_loser_can_retry(self, peer):
        reader = peer.begin_transaction()
        writer = peer.begin_transaction()
        peer.submit(reader.txn_id, QUERY)
        peer.submit(writer.txn_id, REPLACE.format(v=50))
        peer.commit(writer.txn_id)
        with pytest.raises(ValidationConflict):
            peer.submit(reader.txn_id, REPLACE.format(v=70))
            peer.commit(reader.txn_id)
        retry = peer.begin_transaction()
        peer.submit(retry.txn_id, REPLACE.format(v=70))
        peer.commit(retry.txn_id)
        assert "70" in peer.get_axml_document("Shop").to_xml()

    def test_disjoint_writers_both_commit(self, peer):
        doc = peer.get_axml_document("Shop")
        doc.document.root.new_element("item").new_element("price").new_text("20")
        t1 = peer.begin_transaction()
        t2 = peer.begin_transaction()
        peer.submit(
            t1.txn_id,
            '<action type="replace"><data><price>11</price></data>'
            "<location>Select i/price from i in Shop//item "
            "where i/price = 10;</location></action>",
        )
        peer.submit(
            t2.txn_id,
            '<action type="replace"><data><price>21</price></data>'
            "<location>Select i/price from i in Shop//item "
            "where i/price = 20;</location></action>",
        )
        peer.commit(t1.txn_id)
        peer.commit(t2.txn_id)
        text = doc.to_xml()
        assert "11" in text and "21" in text

    def test_abort_releases_tracking(self, peer):
        txn = peer.begin_transaction()
        peer.submit(txn.txn_id, REPLACE.format(v=50))
        peer.abort(txn.txn_id)
        assert peer.manager.validator._active == {}
        fresh = peer.begin_transaction()
        peer.submit(fresh.txn_id, REPLACE.format(v=60))
        peer.commit(fresh.txn_id)

    def test_occ_off_by_default(self):
        network = SimNetwork()
        plain = AXMLPeer("P", network)
        assert plain.manager.validator is None
