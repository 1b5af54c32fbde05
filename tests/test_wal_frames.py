"""The WAL frame writer: ``entry_to_xml`` writes an entry's frame
straight from the entry, in the bytes the tree renderer it replaced
produced.

``tests/data/wal_frames_golden.json`` holds 52 entries and the frames
that renderer (a scratch ``Document`` handed to ``serialize``) wrote for
them: entries logged by executed inserts, deletes and replaces, and
seeded ones with nested replaces, empty strings, ``& < > " '``, ``]]>``
and non-ASCII text.  A property covers generated entries beyond them.
"""

import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.errors import ReproError, TransactionError
from repro.obs.prof import PROF
from repro.query.update import DeleteRecord, InsertRecord, ReplaceRecord
from repro.txn import wal
from repro.txn.wal import LogEntry, entry_bytes, entry_from_xml, entry_to_xml
from repro.xmlstore import nodes
from repro.xmlstore.fragment import Fragment
from repro.xmlstore.nodes import NodeId
from repro.xmlstore.parser import parse_document
from repro.xmlstore.serializer import serialize

GOLDEN = Path(__file__).parent / "data" / "wal_frames_golden.json"


def _node_id(text):
    return NodeId.parse(text) if text is not None else None


def _record(spec):
    if spec["kind"] == "delete":
        return DeleteRecord(
            _node_id(spec["node"]), _node_id(spec["parent"]), spec["index"],
            _node_id(spec["before"]), _node_id(spec["after"]), spec["snapshot"],
        )
    if spec["kind"] == "insert":
        return InsertRecord(
            _node_id(spec["node"]), _node_id(spec["parent"]), spec["index"],
            Fragment(text=spec["data"]),
        )
    return ReplaceRecord(_record(spec["deleted"]), [_record(s) for s in spec["inserted"]])


def _entry(spec):
    return LogEntry(
        seq=spec["seq"], txn_id=spec["txn"], kind=spec["kind"],
        document_name=spec["document"], action_xml=spec["action_xml"],
        records=[_record(r) for r in spec["records"]], timestamp=spec["timestamp"],
    )


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["frames"]


def _nested_replace(spec):
    return spec["kind"] == "replace" and any(
        inner["kind"] == "replace" or _nested_replace(inner) for inner in spec["inserted"]
    )


def test_golden_frames_cover_every_record_shape():
    rows = _golden()
    frames = [row["frame"] for row in rows]
    assert len(frames) >= 50
    assert any(_nested_replace(r) for row in rows for r in row["entry"]["records"])
    for needle in ('kind="insert"', 'kind="delete"', '<record kind="replace"><record after',
                   "<forward></forward>",
                   "<snapshot></snapshot>", "<data></data>", 'txn=""', "]]&gt;", "&amp;",
                   "&quot;", "'", "é", "中"):
        assert any(needle in frame for frame in frames), needle


def test_frames_are_the_tree_renderers_bytes():
    for row in _golden():
        entry = _entry(row["entry"])
        before = PROF.snapshot()
        assert entry_to_xml(entry) == row["frame"]
        assert PROF.delta_since(before).get("serialize_tree_builds", 0) == 0
        assert entry_from_xml(row["frame"]) == entry


_TEXT_ALPHABET = "aZ09 é中☃&<>\"'];=/-"
#: Character data as the parser keeps it: no leading or trailing space.
_text = st.text(alphabet=_TEXT_ALPHABET, min_size=1, max_size=12).map(str.strip).filter(bool)
_attribute = st.text(alphabet=_TEXT_ALPHABET, max_size=8)
_ids = st.builds(NodeId, st.integers(1, 99), st.integers(1, 9999))
_deletes = st.builds(
    DeleteRecord, _ids, _ids, st.integers(0, 50), st.none() | _ids, st.none() | _ids, _text
)
_inserts = st.builds(
    InsertRecord, _ids, _ids, st.integers(0, 50), _text.map(lambda text: Fragment(text=text))
)
_records = st.recursive(
    _deletes | _inserts,
    lambda inner: st.builds(ReplaceRecord, _deletes, st.lists(_inserts | inner, max_size=3)),
    max_leaves=6,
)
_entries = st.builds(
    LogEntry,
    seq=st.integers(1, 10**6),
    txn_id=_attribute,
    kind=st.sampled_from(["update", "query", "service"]) | _attribute,
    document_name=_attribute,
    action_xml=_text,
    records=st.lists(_records, max_size=4),
    timestamp=st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(_entries)
def test_generated_frames_round_trip(entry):
    frame = entry_to_xml(entry)
    assert serialize(parse_document(frame)) == frame
    decoded = entry_from_xml(frame)
    assert decoded == entry
    assert entry_bytes(decoded) == entry_bytes(entry)


# -- decoding builds no Document, and fails as the tree decoder did ---------

def _tree_decode(text):
    """The decoder ``entry_from_xml`` replaced: the frame parsed into a
    scratch ``Document``, read through its ``Element``s."""
    root = parse_document(text, name="entry").root
    forward = root.first_child("forward")
    try:
        return LogEntry(
            seq=int(root.attributes["seq"]),
            txn_id=root.attributes["txn"],
            kind=root.attributes["kind"],
            document_name=root.attributes["document"],
            action_xml=forward.text_content() if forward is not None else "",
            records=[wal._record_from_element(r) for r in root.find_children("record")],
            timestamp=float(root.attributes.get("timestamp", "0")),
        )
    except (KeyError, ValueError, RecursionError) as exc:
        raise TransactionError(f"malformed log entry: {exc!r}") from exc


def _outcome(decode, text):
    try:
        return ("entry", decode(text))
    except ReproError as exc:
        return (type(exc).__name__, str(exc))


def _malformed(frame):
    """Frames a torn write or a corrupted disk could leave: every cut,
    and edits that break the markup, an attribute, a node id or a
    record kind."""
    for end in range(0, len(frame), 5):
        yield frame[:end]
    edits = [
        ('seq="', 'sq="'), ('txn="', 'tx="'), ('kind="', 'knd="'), ('document="', 'doc="'),
        ('seq="', 'seq="x'), ('timestamp="', 'timestamp="x'), ('node="d', 'node="x'),
        ('parent="d', 'parent="d.'), ('index="', 'index="-x'), ('kind="insert"', 'kind="move"'),
        ('kind="delete"', 'kind="replace"'), ("<forward>", "<forward><b>x</b>"),
        ("</forward>", "</forwrd>"), ("<record", "<record <"), ("&lt;", "&lt"),
        ("&amp;", "&bogus;"), ("&gt;", "&#xD800;"), ("</entry>", "</entry><x/>"),
        ("<forward>", "<!-- c --><forward>"), ("<data>", "<data><![CDATA[<y/>]]>"),
    ]
    for old, new in edits:
        if old in frame:
            yield frame.replace(old, new, 1)


def test_malformed_frames_fail_as_the_tree_decoder_did():
    # Same typed error and message, or the same entry, on every input;
    # and no Document is built on the way.
    for row in _golden()[::4]:
        for text in _malformed(row["frame"]):
            tree = _outcome(_tree_decode, text)
            serials = repr(nodes._document_counter)  # count(<next serial>)
            assert _outcome(entry_from_xml, text) == tree, text
            assert repr(nodes._document_counter) == serials
