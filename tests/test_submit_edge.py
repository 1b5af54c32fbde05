"""An action is a value from the submit edge on.

``parse_action`` keeps each ``<data>`` child as a fragment tree that
belongs to no document, and ``TransactionManager.execute`` logs the
action, not its text: a log entry renders ``action_xml`` (and an insert
record its ``inserted_xml``) only when a byte edge reads it.  So the WAL
frames of submitted actions are the bytes the renderer at execution
wrote (``tests/data/wal_submitted_frames.json``), and a run that writes
no WAL renders no action at all.
"""

import json
from pathlib import Path

from benchmarks.e2e.workloads import RUNNERS
from repro.axml.document import AXMLDocument
from repro.obs.spans import SpanCollector
from repro.query.ast import UpdateAction
from repro.query.parser import parse_action
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction
from repro.txn.wal import entry_from_xml, entry_to_xml

FRAMES = Path(__file__).parent / "data" / "wal_submitted_frames.json"

SHOP = (
    "<Shop><item id='1'><price>10</price><note>old</note></item>"
    "<item id='2'><price>20</price></item><items/></Shop>"
)
#: An insert whose payload splits its text (comment, entity, CDATA), a
#: replace with character data to trim, a delete, and an anchored insert
#: of two fragments; ``{serial}`` is the Shop document's.
ACTIONS = (
    '<action type="insert"><data><note by=\'q"uote &amp; co\' at="1">a<!-- c -->b &amp; c'
    "<![CDATA[<d>]]><e/></note></data><location>Select d from d in Shop//items;</location>"
    "</action>",
    '<action type="replace"><data><price cur="&lt;EUR&gt;"> 30 </price></data>'
    "<location>Select i/price from i in Shop//item where i/@id = 2;</location></action>",
    '<action type="delete"><location>Select i/note from i in Shop//item where i/@id = 1;'
    "</location></action>",
    '<action type="insert" anchor="after:d{serial}.n3"><data><x>1</x></data><data><y/></data>'
    "<location>Select i from i in Shop//item where i/price = 10;</location></action>",
)


def _executed():
    """The four actions executed under one transaction; the log's entries
    and the Shop document's serial."""
    shop = AXMLDocument.from_xml(SHOP, name="Shop")
    serial = shop.document.serial
    manager = TransactionManager("P", lambda name: shop, SpanCollector(now=lambda: 0.0))
    manager.begin(Transaction("T1", "P"))
    for text in ACTIONS:
        manager.execute("T1", parse_action(text.replace("{serial}", str(serial))), "Shop")
    return list(manager.log), serial


def test_submitted_frames_are_the_bytes_rendered_at_execution():
    entries, serial = _executed()
    assert all(entry._action_xml is None for entry in entries)  # nothing rendered yet
    frames = [entry_to_xml(entry).replace(f"d{serial}.", "d0.") for entry in entries]
    assert frames == json.loads(FRAMES.read_text(encoding="utf-8"))["frames"]
    for entry in entries:  # and a frame decodes to an entry that parses back
        decoded = entry_from_xml(entry_to_xml(entry))
        assert decoded == entry and decoded.action == entry.action


def test_a_run_without_wal_renders_no_action(monkeypatch):
    rendered = []
    to_xml = UpdateAction.to_xml

    def counting(action):
        rendered.append(action)
        return to_xml(action)

    monkeypatch.setattr(UpdateAction, "to_xml", counting)
    outcome = RUNNERS["mem_invoke"](21, True)
    assert sum(result.committed for result in outcome.results) > 0
    assert outcome.violations == []
    assert rendered == []
