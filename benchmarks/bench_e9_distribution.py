"""E9 — §1's distributed storage: sub-query shipping vs fragment copying.

"the query Q is decomposed and the relevant sub-query sent to the peer
AP2 for evaluation, or … the required fragment of the AXML document is
copied to the peer AP1 and the query Q evaluated locally."

A 60-book fragment lives on AP2; AP1 runs *k* selective queries against
it inside one transaction.  Option (a) ships each sub-query (k small
round trips, nothing to compensate locally); option (b) copies the
fragment once on first touch (one big transfer, local evaluation
afterwards, and the copy itself becomes compensable local state).

Shape being checked: shipping's message count grows linearly with k
while copying's stays constant after the first fetch — so copying
overtakes shipping beyond a small k; bytes moved shows the reverse
trade at k=1 (the copy moves the whole fragment for one answer).
"""

import pytest

from repro.axml.document import AXMLDocument
from repro.p2p.distribution import distribute_fragment, remote_subquery
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.query.parser import parse_select
from repro.sim.harness import ExperimentTable

from _util import publish

BOOKS = 60


def build_library():
    network = SimNetwork()
    ap1 = AXMLPeer("AP1", network)
    ap2 = AXMLPeer("AP2", network)
    body = "".join(
        f"<book><title>t{i}</title><year>{1950 + i}</year></book>"
        for i in range(BOOKS)
    )
    ap1.host_document(
        AXMLDocument.from_xml(f"<Lib><books>{body}</books></Lib>", name="Lib")
    )
    network.replication.register_primary("Lib", "AP1")
    placement = distribute_fragment(ap1, "Lib", "//books", ap2)
    return network, ap1, placement


def run_shipping(k: int):
    network, ap1, placement = build_library()
    txn = ap1.begin_transaction()
    result_bytes = 0
    for i in range(k):
        subquery = parse_select(
            f"Select b/title from b in {placement.fragment_document}//book "
            f"where b/year = {1950 + i};"
        )
        fragments = remote_subquery(ap1, txn.txn_id, placement, subquery)
        result_bytes += sum(len(f) for f in fragments)
    ap1.commit(txn.txn_id)
    return {
        "messages": network.metrics.get("messages"),
        "local_log_records": 0,
        "bytes": result_bytes,
    }


def run_copying(k: int):
    network, ap1, placement = build_library()
    txn = ap1.begin_transaction()
    for i in range(k):
        ap1.submit(
            txn.txn_id,
            '<action type="query"><location>Select b/title from b in '
            f"Lib//book where b/year = {1950 + i};</location></action>",
        )
    log_records = ap1.manager.log.record_count(txn.txn_id)
    copied_bytes = len(
        ap1.get_axml_document("Lib").to_xml()
    )  # fragment now inline
    ap1.commit(txn.txn_id)
    return {
        "messages": network.metrics.get("messages"),
        "local_log_records": log_records,
        "bytes": copied_bytes,
    }


def run_point(k: int):
    shipping = run_shipping(k)
    copying = run_copying(k)
    return {
        "queries": k,
        "ship_msgs": shipping["messages"],
        "copy_msgs": copying["messages"],
        "ship_bytes": shipping["bytes"],
        "copy_bytes": copying["bytes"],
        "copy_log_records": copying["local_log_records"],
    }


KS = (1, 2, 5, 10, 25)


def test_e9_distribution_options(benchmark):
    rows = [run_point(k) for k in KS[:-1]]
    rows.append(benchmark(run_point, KS[-1]))
    table = ExperimentTable(
        f"E9: sub-query shipping vs fragment copying ({BOOKS}-book fragment)",
        [
            "queries",
            "ship_msgs",
            "copy_msgs",
            "ship_bytes",
            "copy_bytes",
            "copy_log_records",
        ],
    )
    for row in rows:
        table.add_row(**row)
    # Shipping messages grow with k; copying is flat after the fetch.
    ship = [row["ship_msgs"] for row in rows]
    copy = [row["copy_msgs"] for row in rows]
    assert ship == sorted(ship) and ship[-1] > ship[0]
    assert copy[0] == copy[-1]
    # Crossover: shipping is cheaper at k=1, copying wins for large k.
    assert rows[0]["ship_msgs"] < rows[0]["copy_msgs"] + 2  # comparable at k=1
    assert rows[-1]["ship_msgs"] > rows[-1]["copy_msgs"]
    # At k=1 the copy moved far more bytes than the one answer needed.
    assert rows[0]["copy_bytes"] > 10 * rows[0]["ship_bytes"]
    # Only copying creates compensable local state.
    assert all(row["copy_log_records"] > 0 for row in rows)
    table.add_note("copy fetches once on first touch; both run inside one txn")
    publish(table, "e9_distribution.txt")
