"""The per-peer operation log.

§3.1 spells out what must be logged to make dynamic compensation
possible: "the delete operations as well as the results of the
<location> queries of the delete operations need to be logged", insert
operations log the returned node ids, and query operations log the
change records of every service-call materialization they triggered.

The log is append-only and is the *only* owner of the live entry set.
It lives in memory and becomes crash-durable by attaching a
:class:`~repro.txn.durable_wal.DurableWal` (:meth:`OperationLog.attach`):
every append and truncate is streamed to that disk backend, and the log
carries its own death and rebirth — :meth:`OperationLog.crash` drops the
volatile entries, :meth:`OperationLog.recover` refills the same object
from disk — so a peer that dies mid-transaction compensates from it on
restart (``TransactionManager.recover``).  Each entry has one persisted
form, :func:`entry_to_xml`, shared by WAL segments and checkpoints;
replication ships hand replicas the entries themselves, whose parsed
:attr:`LogEntry.action` is the one the appending code executed.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import TransactionError
from repro.query.update import ChangeRecord
from repro.xmlstore.names import QName
from repro.xmlstore.serializer import escape_attribute, escape_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.ast import UpdateAction
    from repro.txn.durable_wal import DurableWal


class LogEntry:
    """One logged forward operation.

    ``kind`` is ``update`` (insert/delete/replace), ``query`` (with the
    materialization records lazy evaluation produced) or ``service``
    (an operation executed on behalf of a remote invoker).

    The operation is held as the action that ran, its text, or both,
    each made from the other at most once: an appended entry holds the
    action and renders :attr:`action_xml` when a byte edge first reads
    it (a WAL frame, :func:`entry_bytes`, a replication key); one
    decoded from disk holds its text and parses :attr:`action` on first
    use.
    """

    __slots__ = ("seq", "txn_id", "kind", "document_name", "records", "timestamp",
                 "_action_xml", "_action")

    def __init__(
        self,
        seq: int,
        txn_id: str,
        kind: str,
        document_name: str,
        action_xml: Optional[str],
        records: Sequence[ChangeRecord],
        timestamp: float = 0.0,
        action: Optional["UpdateAction"] = None,
    ):
        self.seq = seq
        self.txn_id = txn_id
        self.kind = kind
        self.document_name = document_name
        self.records: List[ChangeRecord] = list(records)
        #: Simulated time of the append (0.0 outside a simulation).
        self.timestamp = timestamp
        self._action_xml = action_xml
        self._action = action

    @property
    def action_xml(self) -> str:
        """The action's ``<action>`` text, rendered on first read."""
        if self._action_xml is None:
            self._action_xml = self._action.to_xml()
        return self._action_xml

    @property
    def action(self) -> "UpdateAction":
        """``action_xml`` parsed, on first use (an appended entry holds
        the action that ran)."""
        if self._action is None:
            from repro.query.parser import parse_action

            self._action = parse_action(self._action_xml)
        return self._action

    def __eq__(self, other: object) -> bool:
        fields = ("seq", "txn_id", "kind", "document_name", "action_xml", "records", "timestamp")
        return isinstance(other, LogEntry) and all(
            getattr(self, name) == getattr(other, name) for name in fields
        )

    __hash__ = None  # compared by value, and mutable

    def __repr__(self) -> str:
        return (
            f"LogEntry(seq={self.seq!r}, txn_id={self.txn_id!r}, kind={self.kind!r}, "
            f"document_name={self.document_name!r}, action_xml={self.action_xml!r}, "
            f"records={self.records!r}, timestamp={self.timestamp!r})"
        )


class OperationLog:
    """Append-only operation log of one peer."""

    def __init__(self, peer_id: str):
        self.peer_id = peer_id
        self._entries: List[LogEntry] = []
        self._seq = itertools.count(1)
        #: Optional disk backend (see :meth:`attach`); ``None`` = in-memory.
        self._wal: Optional["DurableWal"] = None

    def attach(self, wal: "DurableWal") -> None:
        """Make the log crash-durable through *wal*.

        From now on every append/truncate is streamed to the backend
        (``on_append`` runs *after* the entry joined the log,
        ``on_truncate`` after a finished transaction's entries were
        dropped), and the backend reads the live entry set back from
        this log whenever it compacts or checkpoints.
        """
        self._wal = wal
        wal.log = self

    def append(
        self,
        txn_id: str,
        kind: str,
        document_name: str,
        action_xml: Optional[str],
        records: Sequence[ChangeRecord],
        timestamp: float,
        action: Optional["UpdateAction"],
    ) -> LogEntry:
        """Append a forward operation's log entry and return it: the
        executed *action*, with ``action_xml`` ``None`` until a byte edge
        renders it, or only the text (a survivor decoded from disk)."""
        entry = LogEntry(
            seq=next(self._seq),
            txn_id=txn_id,
            kind=kind,
            document_name=document_name,
            action_xml=action_xml,
            records=records,
            timestamp=timestamp,
            action=action,
        )
        self._entries.append(entry)
        if self._wal is not None:
            self._wal.on_append(entry)
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
        if removed and self._wal is not None:
            self._wal.on_truncate(txn_id)
        return removed

    # -- diagnostics --------------------------------------------------------------

    def approximate_bytes(self, txn_id: str) -> int:
        """Rough log footprint of one transaction (used by the
        log-vs-snapshot experiment E3).

        Every record — direct or nested inside a ``ReplaceRecord`` —
        pays the same flat per-record overhead plus its payload length,
        so E3's comparison is not skewed by how a change happens to be
        nested.
        """
        return sum(entry_bytes(entry) for entry in self.entries_for(txn_id))

    def flush(self) -> None:
        """Make every appended entry durable now (a no-op in memory or
        without group commit)."""
        if self._wal is not None:
            self._wal.flush()

    # -- crash / restart ------------------------------------------------------

    def crash(self) -> List[LogEntry]:
        """Process death: the in-memory entries are gone, and the disk
        backend (if any) keeps only what it synced.

        Returns the entries whose frames were never synced (the
        group-commit batch): the restarted log will not know them, so
        the caller must undo their document effects.
        """
        unsynced = self._wal.crash() if self._wal is not None else []
        self._adopt(())
        return unsynced

    def recover(self) -> None:
        """Restart: refill this log in place — from disk when durable
        (:meth:`repro.txn.durable_wal.DurableWal.reload`); an in-memory
        log simply keeps whatever entries survived."""
        if self._wal is not None:
            self._adopt(self._wal.reload())

    def _adopt(self, entries: Sequence[LogEntry]) -> None:
        """Replace the live set.  Entries are re-ordered by ``seq`` —
        ``undo_entries`` must compensate in true reverse execution order
        even when they arrive merged or reordered — and duplicate seqs
        are rejected (two entries claiming the same position cannot both
        be replayed)."""
        ordered = sorted(entries, key=lambda e: e.seq)
        for earlier, later in zip(ordered, ordered[1:]):
            if earlier.seq == later.seq:
                raise ValueError(
                    f"duplicate log seq {later.seq} in restored log"
                )
        self._entries = ordered
        self._seq = itertools.count(ordered[-1].seq + 1 if ordered else 1)


# ---------------------------------------------------------------------------
# the one persisted form of an entry (WAL segments, checkpoints)
# ---------------------------------------------------------------------------

def entry_to_xml(entry: LogEntry) -> str:
    """One entry as a self-contained XML document (durable-WAL framing).

    Written straight from the entry in :func:`~repro.xmlstore.serializer.serialize`'s
    bytes: attributes sorted by name, and a text-bearing child is always
    ``<x>…</x>``, even when its text is empty.
    """
    out = [
        f'<entry document="{escape_attribute(entry.document_name)}" '
        f'kind="{escape_attribute(entry.kind)}" seq="{entry.seq}" '
        f'timestamp="{entry.timestamp!r}" txn="{escape_attribute(entry.txn_id)}">'
        f"<forward>{escape_text(entry.action_xml)}</forward>"
    ]
    for record in entry.records:
        _write_record(record, out)
    out.append("</entry>")
    return "".join(out)


def entry_from_xml(text: str) -> LogEntry:
    """Decode one entry serialized by :func:`entry_to_xml`.

    The frame is read through the parser's builder protocol
    (:func:`~repro.xmlstore.parser.scan_document`) into plain
    :class:`_FrameElement` objects: no ``Document``, no node ids.  The
    text comes from disk (a WAL segment or a checkpoint), so every way
    it can be wrong is a typed error: ill-formed XML is the parser's
    :class:`~repro.errors.XmlParseError`, a missing or ill-typed
    attribute a :class:`~repro.errors.TransactionError`.
    """
    from repro.xmlstore.parser import scan_document

    holder = _FrameElement("frame", {})
    scan_document(text, holder)
    root = holder.content[0]
    forward_el = root.first_child("forward")
    try:
        return LogEntry(
            seq=int(root.attributes["seq"]),
            txn_id=root.attributes["txn"],
            kind=root.attributes["kind"],
            document_name=root.attributes["document"],
            action_xml=forward_el.text_content() if forward_el is not None else "",
            records=[
                _record_from_element(rec_el)
                for rec_el in root.find_children("record")
            ],
            timestamp=float(root.attributes.get("timestamp", "0")),
        )
    except (KeyError, ValueError, RecursionError) as exc:
        # RecursionError: replace records nest, and the parser (which
        # does not recurse) lets any depth through.
        raise TransactionError(f"malformed log entry: {exc!r}") from exc


class _FrameElement:
    """An element of a log-entry frame as :func:`entry_from_xml` reads
    it: name, attributes and content (child elements and text runs, as
    the parser hands them over), with the ``Element`` readers the
    decoder uses."""

    __slots__ = ("name", "attributes", "content")

    def __init__(self, name: str, attributes: Dict[str, str]):
        self.name = QName.parse(name)
        self.attributes = attributes
        self.content: List[Union["_FrameElement", str]] = []

    def new_element(self, name: str, attributes: Dict[str, str]) -> "_FrameElement":
        child = _FrameElement(name, attributes)
        self.content.append(child)
        return child

    def new_text(self, run: str) -> None:
        self.content.append(run)

    def find_children(self, name: str) -> List["_FrameElement"]:
        return [
            child for child in self.content
            if child.__class__ is _FrameElement and child.name.text == name
        ]

    def first_child(self, name: str) -> Optional["_FrameElement"]:
        return next(iter(self.find_children(name)), None)

    def text_content(self) -> str:
        parts: List[str] = []
        pending = self.content[::-1]
        while pending:
            node = pending.pop()
            if node.__class__ is _FrameElement:
                pending.extend(reversed(node.content))
            else:
                parts.append(node)
        return "".join(parts)


# ---------------------------------------------------------------------------
# on-disk framing: ``<kind> <payload-bytes>[ <name>]\n<payload>\n``
# (WAL segments and checkpoint files share it)
# ---------------------------------------------------------------------------

def _encode_frame(kind: str, payload: str, name: Optional[str] = None) -> bytes:
    """One self-delimiting frame; *name* is the optional third header
    field (the document name of a checkpoint ``D`` frame)."""
    data = payload.encode("utf-8")
    header = f"{kind} {len(data)}" if name is None else f"{kind} {len(data)} {name}"
    return header.encode("utf-8") + b"\n" + data + b"\n"


def _read_frame(
    blob: bytes, pos: int
) -> Optional[Tuple[str, Optional[str], str, int]]:
    """Decode the frame starting at *pos* of *blob*.

    Returns ``(kind, name, payload, next_pos)``, or ``None`` when the
    frame is torn: no header line, a malformed header, a payload shorter
    than declared, a missing terminator, or bytes that are not UTF-8.
    """
    newline = blob.find(b"\n", pos)
    if newline < 0:
        return None
    start = newline + 1
    try:
        kind, length, *name = blob[pos:newline].decode("utf-8").split(" ")
        end = start + int(length)
        if len(name) > 1 or end < start or blob[end:end + 1] != b"\n":
            return None
        payload = blob[start:end].decode("utf-8")
    except ValueError:  # too few fields, bad length, undecodable bytes
        return None
    return kind, (name[0] if name else None), payload, end + 1


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


def _write_record(record: ChangeRecord, out: List[str]) -> None:
    """Append *record*'s ``<record>`` element to *out* (attributes in
    name order, as :func:`entry_to_xml` writes them)."""
    from repro.query.update import DeleteRecord, InsertRecord, ReplaceRecord

    if isinstance(record, DeleteRecord):
        before = repr(record.before_id) if record.before_id else ""
        after = repr(record.after_id) if record.after_id else ""
        out.append(
            f'<record after="{after}" before="{before}" index="{record.index}" '
            f'kind="delete" node="{record.node_id!r}" parent="{record.parent_id!r}">'
            f"<snapshot>{escape_text(record.snapshot_xml)}</snapshot></record>"
        )
    elif isinstance(record, InsertRecord):
        out.append(
            f'<record index="{record.index}" kind="insert" node="{record.node_id!r}" '
            f'parent="{record.parent_id!r}"><data>{escape_text(record.inserted_xml)}</data></record>'
        )
    elif isinstance(record, ReplaceRecord):
        out.append('<record kind="replace">')
        _write_record(record.deleted, out)
        for inserted in record.inserted:
            _write_record(inserted, out)
        out.append("</record>")
    else:  # pragma: no cover - exhaustive
        raise TypeError(f"unknown record {record!r}")


def _record_from_element(element: _FrameElement) -> ChangeRecord:
    from repro.query.update import DeleteRecord, InsertRecord, ReplaceRecord
    from repro.xmlstore.fragment import Fragment
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
            fragment=Fragment(text=data_el.text_content() if data_el is not None else ""),
        )
    if kind == "replace":
        children = element.find_children("record")
        if not children:
            raise ValueError("a replace record holds a delete, then its inserts")
        deleted = _record_from_element(children[0])
        inserted = [_record_from_element(child) for child in children[1:]]
        return ReplaceRecord(deleted, inserted)
    raise ValueError(f"unknown record kind {kind!r}")
