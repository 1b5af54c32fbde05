"""The per-peer operation log.

§3.1 spells out what must be logged to make dynamic compensation
possible: "the delete operations as well as the results of the
<location> queries of the delete operations need to be logged", insert
operations log the returned node ids, and query operations log the
change records of every service-call materialization they triggered.

The log is append-only.  It lives in memory, round-trips through a text
form (:meth:`OperationLog.to_text` / :meth:`OperationLog.from_text`),
and can be made crash-durable by attaching a :class:`LogSink` — see
:mod:`repro.txn.durable_wal`, which streams every entry to disk at
append time so a peer that dies mid-transaction can rebuild its log on
restart and compensate from it (``AXMLPeer.rejoin``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Protocol, Sequence

from repro.query.update import ChangeRecord


@dataclass
class LogEntry:
    """One logged forward operation.

    ``kind`` is ``update`` (insert/delete/replace), ``query`` (with the
    materialization records lazy evaluation produced) or ``service``
    (an operation executed on behalf of a remote invoker).
    """

    seq: int
    txn_id: str
    kind: str
    document_name: str
    action_xml: str
    records: List[ChangeRecord] = field(default_factory=list)
    #: Simulated time of the append (0.0 outside a simulation).
    timestamp: float = 0.0
    #: Memoized :func:`entry_to_xml` frame.  Entries are immutable after
    #: append, so the first encode (durable-WAL write) is reused by the
    #: checkpoint and by every replication ship instead of re-rendering.
    _xml_cache: Optional[str] = field(
        default=None, repr=False, compare=False
    )

    @property
    def is_compensatable(self) -> bool:
        return bool(self.records)


class LogSink(Protocol):
    """Persistence hook: observes the log's mutations as they happen.

    ``on_append`` runs *after* the entry joined the in-memory log;
    ``on_truncate`` runs after a finished transaction's entries were
    dropped.  :class:`repro.txn.durable_wal.DurableWal` implements this
    protocol with an on-disk segment file.
    """

    def on_append(self, entry: LogEntry) -> None: ...

    def on_truncate(self, txn_id: str) -> None: ...


class OperationLog:
    """Append-only operation log of one peer."""

    def __init__(self, peer_id: str = ""):
        self.peer_id = peer_id
        self._entries: List[LogEntry] = []
        self._seq = itertools.count(1)
        #: Optional durability sink (see :class:`LogSink`).
        self.sink: Optional[LogSink] = None

    def append(
        self,
        txn_id: str,
        kind: str,
        document_name: str,
        action_xml: str,
        records: Sequence[ChangeRecord] = (),
        timestamp: float = 0.0,
    ) -> LogEntry:
        """Append a forward operation's log entry and return it."""
        entry = LogEntry(
            seq=next(self._seq),
            txn_id=txn_id,
            kind=kind,
            document_name=document_name,
            action_xml=action_xml,
            records=list(records),
            timestamp=timestamp,
        )
        self._entries.append(entry)
        if self.sink is not None:
            self.sink.on_append(entry)
        return entry

    # -- reading ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)

    def entries_for(self, txn_id: str) -> List[LogEntry]:
        """All live entries of one transaction, oldest first."""
        return [e for e in self._entries if e.txn_id == txn_id]

    def undo_entries(self, txn_id: str) -> List[LogEntry]:
        """Entries to compensate, newest first (reverse execution order)."""
        return list(reversed(self.entries_for(txn_id)))

    def documents_touched(self, txn_id: str) -> List[str]:
        """Distinct documents the transaction modified, in first-touch order."""
        seen = set()
        out: List[str] = []
        for entry in self.entries_for(txn_id):
            if entry.records and entry.document_name not in seen:
                seen.add(entry.document_name)
                out.append(entry.document_name)
        return out

    def record_count(self, txn_id: str) -> int:
        return sum(len(e.records) for e in self.entries_for(txn_id))

    # -- truncation ----------------------------------------------------------

    def truncate(self, txn_id: str) -> int:
        """Drop a finished transaction's entries; returns how many.

        Called on commit (compensation will never be needed) or after
        compensation completes.
        """
        before = len(self._entries)
        self._entries = [e for e in self._entries if e.txn_id != txn_id]
        removed = before - len(self._entries)
        if removed and self.sink is not None:
            self.sink.on_truncate(txn_id)
        return removed

    # -- diagnostics --------------------------------------------------------------

    def approximate_bytes(self, txn_id: Optional[str] = None) -> int:
        """Rough log footprint (used by the log-vs-snapshot experiment E3).

        Every record — direct or nested inside a ``ReplaceRecord`` —
        pays the same flat per-record overhead plus its payload length,
        so E3's comparison is not skewed by how a change happens to be
        nested.
        """
        entries = self.entries_for(txn_id) if txn_id else self._entries
        return sum(entry_bytes(entry) for entry in entries)

    def dump(self) -> str:
        """Human-readable text form of the whole log."""
        lines = []
        for e in self._entries:
            lines.append(
                f"#{e.seq} [{e.txn_id}] {e.kind} doc={e.document_name} "
                f"records={len(e.records)} t={e.timestamp:.3f} {e.action_xml}"
            )
        return "\n".join(lines)

    # -- persistence ---------------------------------------------------------

    def to_text(self) -> str:
        """Serialize the full log as an XML document.

        Together with :meth:`from_text` this gives peers a restart
        story: a peer that went down with in-flight transactions can
        reload its log and compensate them on rejoin (see
        ``AXMLPeer.rejoin``).  The encoding dogfoods the library's own
        XML layer.
        """
        from repro.xmlstore.nodes import Document
        from repro.xmlstore.serializer import serialize

        doc = Document("log")
        root = doc.create_root("log")
        root.attributes["peer"] = self.peer_id
        for entry in self._entries:
            entry_el = root.new_element("entry", _entry_attrs(entry))
            _fill_entry_element(entry_el, entry)
        return serialize(doc)

    @classmethod
    def from_text(cls, text: str) -> "OperationLog":
        """Restore a log serialized by :meth:`to_text`.

        Entries are re-ordered by ``seq`` — ``undo_entries`` must
        compensate in true reverse execution order even when the text
        was merged or reordered in transit — and duplicate seqs are
        rejected (two entries claiming the same position cannot both be
        replayed).
        """
        from repro.xmlstore.parser import parse_document

        doc = parse_document(text, name="log")
        entries = [
            _entry_from_element(entry_el)
            for entry_el in doc.root.find_children("entry")
        ]
        return cls.from_entries(
            doc.root.attributes.get("peer", ""), entries
        )

    @classmethod
    def from_entries(
        cls, peer_id: str, entries: Sequence[LogEntry]
    ) -> "OperationLog":
        """A log adopting *entries* (sorted by seq, duplicates rejected),
        with ``append`` continuing after the highest adopted seq."""
        log = cls(peer_id)
        ordered = sorted(entries, key=lambda e: e.seq)
        seen = set()
        for entry in ordered:
            if entry.seq in seen:
                raise ValueError(
                    f"duplicate log seq {entry.seq} in restored log"
                )
            seen.add(entry.seq)
        log._entries = list(ordered)
        max_seq = ordered[-1].seq if ordered else 0
        log._seq = itertools.count(max_seq + 1)
        return log


# ---------------------------------------------------------------------------
# single-entry XML codec (shared by to_text/from_text and the durable WAL)
# ---------------------------------------------------------------------------

def _entry_attrs(entry: LogEntry) -> dict:
    return {
        "seq": str(entry.seq),
        "txn": entry.txn_id,
        "kind": entry.kind,
        "document": entry.document_name,
        "timestamp": repr(entry.timestamp),
    }


def _fill_entry_element(entry_el, entry: LogEntry) -> None:
    entry_el.new_element("forward").new_text(entry.action_xml)
    for record in entry.records:
        _record_to_element(entry_el, record)


def _entry_from_element(entry_el) -> LogEntry:
    forward_el = entry_el.first_child("forward")
    records = [
        _record_from_element(rec_el)
        for rec_el in entry_el.find_children("record")
    ]
    return LogEntry(
        seq=int(entry_el.attributes["seq"]),
        txn_id=entry_el.attributes["txn"],
        kind=entry_el.attributes["kind"],
        document_name=entry_el.attributes["document"],
        action_xml=forward_el.text_content() if forward_el is not None else "",
        records=records,
        timestamp=float(entry_el.attributes.get("timestamp", "0")),
    )


def entry_to_xml(entry: LogEntry) -> str:
    """One entry as a self-contained XML document (durable-WAL framing).

    Frames are memoized on the entry (entries are immutable once
    appended), so an entry written to the WAL, folded into a checkpoint
    and shipped to R replicas encodes once rather than 2+R times.  The
    cache is encode-side only: decoding never seeds it, keeping the
    memoized frame provably identical to a fresh render.
    """
    from repro.obs.prof import PROF
    from repro.xmlstore.fastpath import fast_path_enabled
    from repro.xmlstore.nodes import Document
    from repro.xmlstore.serializer import serialize

    use_cache = fast_path_enabled()
    if use_cache and entry._xml_cache is not None:
        PROF.incr("entry_codec_hits")
        return entry._xml_cache
    doc = Document("entry")
    root = doc.create_root("entry")
    root.attributes.update(_entry_attrs(entry))
    _fill_entry_element(root, entry)
    text = serialize(doc)
    if use_cache:
        PROF.incr("entry_codec_misses")
        entry._xml_cache = text
    return text


def entry_from_xml(text: str) -> LogEntry:
    """Decode one entry serialized by :func:`entry_to_xml`."""
    from repro.xmlstore.parser import parse_document

    doc = parse_document(text, name="entry")
    return _entry_from_element(doc.root)


def entry_bytes(entry: LogEntry) -> int:
    """Logical payload size of one entry (action + record accounting).

    Used for :meth:`OperationLog.approximate_bytes` and the durable
    WAL's ``wal_bytes`` counter.  Deliberately *not* the serialized
    frame length: node-id reprs embed a process-global document serial,
    so frame lengths vary between runs within one process and would
    break byte-identical summaries.
    """
    return len(entry.action_xml) + sum(
        _record_bytes(record) for record in entry.records
    )


def _record_bytes(record: ChangeRecord) -> int:
    """Flat 32-byte overhead + payload, applied uniformly at every
    nesting level (a replace charges itself plus its halves)."""
    total = 32
    if record.kind == "replace":
        total += _record_bytes(record.deleted)
        total += sum(_record_bytes(inserted) for inserted in record.inserted)
    else:
        total += len(getattr(record, "snapshot_xml", ""))
        total += len(getattr(record, "inserted_xml", ""))
    return total


def _record_to_element(parent, record: ChangeRecord) -> None:
    from repro.query.update import DeleteRecord, InsertRecord, ReplaceRecord

    if isinstance(record, DeleteRecord):
        el = parent.new_element(
            "record",
            {
                "kind": "delete",
                "node": repr(record.node_id),
                "parent": repr(record.parent_id),
                "index": str(record.index),
                "before": repr(record.before_id) if record.before_id else "",
                "after": repr(record.after_id) if record.after_id else "",
            },
        )
        el.new_element("snapshot").new_text(record.snapshot_xml)
    elif isinstance(record, InsertRecord):
        el = parent.new_element(
            "record",
            {
                "kind": "insert",
                "node": repr(record.node_id),
                "parent": repr(record.parent_id),
                "index": str(record.index),
            },
        )
        el.new_element("data").new_text(record.inserted_xml)
    elif isinstance(record, ReplaceRecord):
        el = parent.new_element("record", {"kind": "replace"})
        _record_to_element(el, record.deleted)
        for inserted in record.inserted:
            _record_to_element(el, inserted)
    else:  # pragma: no cover - exhaustive
        raise TypeError(f"unknown record {record!r}")


def _record_from_element(element) -> ChangeRecord:
    from repro.query.update import DeleteRecord, InsertRecord, ReplaceRecord
    from repro.xmlstore.nodes import NodeId

    kind = element.attributes.get("kind", "")
    if kind == "delete":
        snapshot_el = element.first_child("snapshot")
        return DeleteRecord(
            node_id=NodeId.parse(element.attributes["node"]),
            parent_id=NodeId.parse(element.attributes["parent"]),
            index=int(element.attributes["index"]),
            before_id=(
                NodeId.parse(element.attributes["before"])
                if element.attributes.get("before")
                else None
            ),
            after_id=(
                NodeId.parse(element.attributes["after"])
                if element.attributes.get("after")
                else None
            ),
            snapshot_xml=snapshot_el.text_content() if snapshot_el is not None else "",
        )
    if kind == "insert":
        data_el = element.first_child("data")
        return InsertRecord(
            node_id=NodeId.parse(element.attributes["node"]),
            parent_id=NodeId.parse(element.attributes["parent"]),
            index=int(element.attributes["index"]),
            inserted_xml=data_el.text_content() if data_el is not None else "",
        )
    if kind == "replace":
        children = element.find_children("record")
        deleted = _record_from_element(children[0])
        inserted = [_record_from_element(child) for child in children[1:]]
        return ReplaceRecord(deleted, inserted)
    raise ValueError(f"unknown record kind {kind!r}")
