"""The per-entry log codec with hostile content: escaping round-trips."""

from repro.axml.document import AXMLDocument
from repro.obs.spans import SpanCollector
from repro.query.parser import parse_action
from repro.txn.compensation import build_compensation_for_entries
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction
from repro.txn.wal import OperationLog, entry_from_xml, entry_to_xml
from repro.xmlstore.serializer import canonical


def logged(axml, action_xml):
    """The log of peer ``P`` after running one action as transaction T1."""
    manager = TransactionManager("P", lambda name: axml, SpanCollector(lambda: 0.0))
    manager.begin(Transaction("T1", "P"))
    manager.execute("T1", parse_action(action_xml), axml.name)
    return manager.log


def restart(log):
    """Every entry through the persisted form, adopted by a fresh log."""
    restored = OperationLog(log.peer_id)
    restored._adopt([entry_from_xml(entry_to_xml(entry)) for entry in log])
    return restored


def test_snapshot_with_entities_roundtrips():
    axml = AXMLDocument.from_xml(
        '<Shop><item note="a &amp; b &lt; c"><name>Q&amp;A &lt;guide&gt;</name>'
        "</item></Shop>",
        name="Shop",
    )
    pre = canonical(axml.document)
    log = logged(
        axml,
        '<action type="delete"><location>Select i/name from i in '
        "Shop//item;</location></action>",
    )
    restored = restart(log)
    snapshot = restored.entries_for("T1")[0].records[0].snapshot_xml
    assert "&amp;" in snapshot  # still-escaped content inside the snapshot
    for plan in build_compensation_for_entries(restored.undo_entries("T1")):
        plan.execute(axml.document)
    assert canonical(axml.document) == pre
    name = axml.document.root.child_elements()[0].first_child("name")
    assert name.text_content() == "Q&A <guide>"


def test_action_xml_with_quotes_roundtrips():
    axml = AXMLDocument.from_xml("<D><x q='say \"hi\"'/></D>", name="D")
    log = logged(
        axml,
        '<action type="insert"><data><y note="it&apos;s"/></data>'
        "<location>Select d from d in D;</location></action>",
    )
    restored = restart(log)
    entry = restored.entries_for("T1")[0]
    assert entry.action_xml == log.entries_for("T1")[0].action_xml


def test_replace_record_with_multiple_inserts_roundtrips():
    axml = AXMLDocument.from_xml("<D><item><v>1</v></item></D>", name="D")
    log = logged(
        axml,
        '<action type="replace"><data><v>2</v></data><data><w>3</w></data>'
        "<location>Select i/v from i in D//item;</location></action>",
    )
    restored = restart(log)
    record = restored.entries_for("T1")[0].records[0]
    assert record.kind == "replace"
    assert len(record.inserted) == 2
    assert "1" in record.deleted.snapshot_xml


def test_deep_subtree_snapshot_roundtrips():
    axml = AXMLDocument.from_xml(
        "<D><tree><a><b><c attr='x'>deep &amp; nested</c></b></a></tree></D>",
        name="D",
    )
    pre = canonical(axml.document)
    log = logged(
        axml,
        '<action type="delete"><location>Select d/tree from d in D;'
        "</location></action>",
    )
    for plan in build_compensation_for_entries(restart(log).undo_entries("T1")):
        plan.execute(axml.document)
    assert canonical(axml.document) == pre
