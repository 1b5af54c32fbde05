"""Distributed document storage (§1) and continuous services.

A library catalogue lives on AP1, but its <books> section is distributed
to AP2 (a fragment placeholder — an embedded service call — stays
behind).  The script shows both of the paper's access options, the
transactional behaviour of fragment copies, and a frequency-driven
continuous service streaming price updates.

Run:  python examples/distributed_library.py
"""

from repro import AXMLDocument, AXMLPeer, SimNetwork
from repro.axml.continuous import ContinuousDriver
from repro.outcome import Outcome
from repro.p2p.distribution import distribute_fragment, remote_subquery
from repro.query.parser import parse_select
from repro.xmlstore.serializer import canonical


def main() -> None:
    network = SimNetwork()
    ap1 = AXMLPeer("AP1", network)
    ap2 = AXMLPeer("AP2", network)
    library = ap1.host_document(
        AXMLDocument.from_xml(
            """
            <Lib>
              <books>
                <book><title>Sagas</title><year>1987</year></book>
                <book><title>ARIES</title><year>1992</year></book>
                <book><title>Spheres</title><year>2000</year></book>
              </books>
              <cds><cd><name>Goldberg</name></cd></cds>
            </Lib>
            """,
            name="Lib",
        )
    )
    network.replication.register_primary("Lib", "AP1")
    placement = distribute_fragment(ap1, "Lib", "//books", ap2)
    print("after distributing <books> to AP2, AP1 holds:")
    print(library.to_pretty(), "\n")

    # ---- option (a): ship the sub-query to the fragment's host --------
    txn = ap1.begin_transaction()
    subquery = parse_select(
        f"Select b/title from b in {placement.fragment_document}//book "
        "where b/year > 1990;"
    )
    print("option (a), sub-query shipping:", remote_subquery(
        ap1, txn.txn_id, placement, subquery))
    print("local document untouched:", "Sagas" not in library.to_xml(), "\n")
    ap1.commit(txn.txn_id)

    # ---- option (b): fragment copy via lazy materialization ------------
    pre = canonical(library.document)
    txn = ap1.begin_transaction()
    outcome = ap1.submit(
        txn.txn_id,
        # note: '<' inside XML text must be escaped as &lt;
        '<action type="query"><location>Select b/title from b in Lib//book '
        "where b/year &lt; 1990;</location></action>",
    )
    print("option (b), lazy copy — results:", outcome.query_result.texts())
    print("fragment copied in:", "Sagas" in library.to_xml())
    ap1.abort(txn.txn_id)
    print("aborted: copy compensated away:", canonical(library.document) == pre, "\n")

    # ---- continuous service: periodic price feed ------------------------
    feed = ap1.host_document(
        AXMLDocument.from_xml(
            "<Feed><axml:sc mode='replace' methodName='getPrice' "
            "frequency='1.0'><price>10</price></axml:sc></Feed>",
            name="Feed",
        )
    )
    prices = iter(range(11, 99))
    driver = ContinuousDriver(
        feed,
        lambda call, params: Outcome([f"<price>{next(prices)}</price>"]),
        network.events,
    )
    driver.start()
    network.events.run_until(4.2)
    print(f"continuous getPrice ticked {driver.tick_count()} times in 4.2s;")
    print("current feed:", feed.to_xml())


if __name__ == "__main__":
    main()
