"""E1 — §3.1 worked examples: dynamic compensation is correct and cheap.

Runs the paper's exact operations (the Federer delete, the Nadal
replace, lazy queries A and B) plus randomized transactions, and checks
that the dynamically constructed compensation restores the canonical
pre-state every time.  Columns report the run-time log footprint and the
paper's cost measure (nodes affected) for the forward operation vs its
compensation.

``log_bytes`` counts logged node ids, whose ``d<serial>`` is the
process-wide serial of their document; each paper operation therefore
runs with document serials counted from 1, as in a fresh process, so the
column does not depend on how many documents were built before it.
"""

import itertools
from unittest import mock

import pytest

from repro.api import Cluster
from repro.query.parser import parse_action
from repro.query.update import apply_action
from repro.sim.harness import ExperimentTable
from repro.sim.rng import SeededRng
from repro.sim.scenarios import QUERY_A, QUERY_B
from repro.sim.workload import generate_catalogue, generate_operation
from repro.txn.compensation import compensating_actions_for
from repro.xmlstore import nodes
from repro.xmlstore.path import TraversalMeter
from repro.xmlstore.serializer import canonical

from _util import publish

PAPER_OPS = [
    (
        "delete(Federer/citizenship)",
        '<action type="delete"><location>Select p/citizenship from p in '
        "ATPList//player where p/name/lastname = Federer;</location></action>",
    ),
    (
        "replace(Nadal/citizenship)",
        '<action type="replace"><data><citizenship>USA</citizenship></data>'
        "<location>Select p/citizenship from p in ATPList//player "
        "where p/name/lastname = Nadal;</location></action>",
    ),
    ("query A (lazy, merge)", f'<action type="query"><location>{QUERY_A}</location></action>'),
    ("query B (lazy, replace)", f'<action type="query"><location>{QUERY_B}</location></action>'),
]


def run_paper_op(label, action_xml):
    with mock.patch.object(nodes, "_document_counter", itertools.count(1)):
        return _run_paper_op(label, action_xml)


def _run_paper_op(label, action_xml):
    scenario = Cluster.atplist()
    peer = scenario.peer("AP1")
    document = peer.get_axml_document("ATPList")
    pre = canonical(document.document)
    txn = peer.begin_transaction()
    outcome = peer.submit(txn.txn_id, action_xml)
    records = outcome.change_records()
    log_bytes = peer.manager.log.approximate_bytes(txn.txn_id)
    comp_meter = TraversalMeter()
    comp_actions = compensating_actions_for(
        outcome.update_result, "ATPList"
    ) if outcome.update_result else None
    if comp_actions is None:
        from repro.txn.compensation import compensate_records

        comp_actions = compensate_records(records, "ATPList")
    for action in comp_actions:
        apply_action(document.document, action, comp_meter, tolerate_missing_targets=True)
    return {
        "operation": label,
        "records": len(records),
        "comp_actions": len(comp_actions),
        "log_bytes": log_bytes,
        "fwd_nodes": outcome.nodes_affected,
        "comp_nodes": comp_meter.nodes_traversed,
        "restored": int(canonical(document.document) == pre),
    }


def run_random_batch(seed: int, transactions: int = 20, length: int = 6):
    rng = SeededRng(seed)
    restored = 0
    records_total = 0
    for _ in range(transactions):
        axml = generate_catalogue(rng, item_count=8, name="Cat")
        pre = canonical(axml.document)
        applied = []
        for _ in range(length):
            action = generate_operation(rng, axml)
            try:
                applied.append(apply_action(axml.document, action))
            except Exception:
                continue
        records_total += sum(len(r.records) for r in applied)
        for result in reversed(applied):
            for comp in compensating_actions_for(result, "Cat"):
                apply_action(axml.document, comp, tolerate_missing_targets=True)
        restored += int(canonical(axml.document) == pre)
    return restored, transactions, records_total


def test_e1_log_bytes_do_not_depend_on_earlier_documents():
    """The same table after 0 and after 50 more documents were built."""
    before = [run_paper_op(label, xml) for label, xml in PAPER_OPS]
    for _ in range(50):
        nodes.Document()
    assert [run_paper_op(label, xml) for label, xml in PAPER_OPS] == before


def test_e1_dynamic_compensation(benchmark):
    rows = [run_paper_op(label, xml) for label, xml in PAPER_OPS]
    restored, transactions, records_total = benchmark(run_random_batch, 42)
    table = ExperimentTable(
        "E1: dynamic compensation — paper ops + randomized transactions",
        [
            "operation",
            "records",
            "comp_actions",
            "log_bytes",
            "fwd_nodes",
            "comp_nodes",
            "restored",
        ],
    )
    for row in rows:
        table.add_row(**row)
        assert row["restored"] == 1, row
    assert restored == transactions
    table.add_row(
        operation=f"random x{transactions} (len 6)",
        records=records_total,
        comp_actions="-",
        log_bytes="-",
        fwd_nodes="-",
        comp_nodes="-",
        restored=restored / transactions,
    )
    # Lazy queries materialize calls, so even queries have records (§3.1).
    assert all(row["records"] >= 1 for row in rows)
    table.add_note("restored=1: canonical post-compensation state equals pre-state")
    publish(table, "e1_compensation.txt")
