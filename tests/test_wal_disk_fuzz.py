"""Hostile bytes on the simulated disk: a restart recovers a prefix or
raises a typed error.

A small durable log — two checkpoint generations and a segment tail,
with delete and replace snapshots that carry ``repro:id``s — is written
to a :class:`~repro.sim.disk.SimDisk`.  One of its files is then damaged
in memory (a bit flipped, the file truncated, or one snapshot's
``repro:id`` repeated over another's or made one that is no id), and
the peer restarts: the log is
reloaded from disk and every recovered share is settled as aborted, its
compensations applied to the documents that survived the crash.

Whatever the damage, the restart either raises a
:class:`~repro.errors.ReproError` subclass or recovers: a truncated
segment gives exactly what the clean prefix before the cut gives,
counting ``wal_torn_tails`` when the cut falls inside a frame, and a
changed newest checkpoint fails its checksum and counts
``checkpoints_torn``.
"""

import re
import zlib

from hypothesis import example, given, settings, strategies as st

from repro.axml.document import AXMLDocument
from repro.errors import P2PError, ReproError
from repro.obs.spans import SpanCollector
from repro.query.parser import parse_action
from repro.sim.disk import SimDisk
from repro.sim.kernel import Clock, EventQueue
from repro.sim.metrics import MetricsCollector
from repro.txn.durable_wal import DurableWal
from repro.txn.manager import TransactionManager
from repro.txn.modes import DurabilityPolicy
from repro.txn.transaction import Transaction
from repro.txn.wal import _encode_frame, _read_frame

SEGMENT = "P/wal-000003.seg"  # the tail past the newest checkpoint
OLDER_SEGMENT = "P/wal-000002.seg"  # replayed only behind the older checkpoint
OLDER_CHECKPOINT = "P/ckpt-000001.ckpt"
CHECKPOINT = "P/ckpt-000002.ckpt"
_ID = re.compile(r'repro:id="([^"]*)"')


def _action(kind, location, data=""):
    data = f"<data>{data}</data>" if data else ""
    return parse_action(f'<action type="{kind}">{data}<location>{location}</location></action>')


def _world():
    """A manager whose durable log holds T1 committed and T2, T3 in
    flight: ``ckpt-000001``, ``ckpt-000002``, the segment ``wal-000002``
    it covers and the tail ``wal-000003``, two deletes with snapshots."""
    document = AXMLDocument.from_xml("<D><slots/></D>", name="D")

    def hosted(name):  # as a peer answers for a document it does not host
        if name != "D":
            raise P2PError(f"peer 'P' does not host document {name!r}")
        return document

    manager = TransactionManager("P", hosted, SpanCollector(lambda: 0.0))
    metrics = MetricsCollector()
    wal = DurableWal(
        DurabilityPolicy("P", checkpoint_every=3), "P", SimDisk(), metrics,
        EventQueue(Clock()), lambda: {"D": document.to_xml()},
    )
    manager.log.attach(wal)
    slots, slot = "Select d from d in D//slots;", "Select s from s in D//slot where s/@c = {};"
    for txn_id in ("T1", "T2", "T3"):
        manager.begin(Transaction(txn_id, "P"))
    manager.execute("T1", _action("insert", slots, '<slot c="a"/>'), "D")
    manager.execute("T1", _action("insert", slots, '<slot c="b"/>'), "D")
    manager.commit_local("T1")
    manager.execute("T2", _action("insert", slots, '<slot c="c"/>'), "D")
    manager.execute("T2", _action("delete", slot.format("a")), "D")
    manager.execute("T3", _action("insert", slots, '<slot c="d"/>'), "D")
    manager.execute("T3", _action("replace", slot.format("b"), '<slot c="z"/>'), "D")
    manager.execute("T2", _action("delete", slot.format("c")), "D")
    manager.execute("T3", _action("delete", slot.format("z")), "D")
    assert wal.disk.names("P") == [
        "ckpt-000001.ckpt", "ckpt-000002.ckpt", "wal-000002.seg", "wal-000003.seg"
    ]
    return manager, wal, metrics


def _restart(manager):
    """Reload the log from disk and settle every recovered share as aborted."""
    manager.crash()
    manager.recover(lambda: None)
    for txn_id in sorted(manager.contexts):
        if manager.live_context(txn_id) is not None:
            manager.abort_local(txn_id)


def _frame_ends(blob):
    """Offsets at which a frame (or the header line) of a segment ends."""
    ends = [0, blob.find(b"\n") + 1]
    while ends[-1] < len(blob):
        ends.append(_read_frame(blob, ends[-1])[3])
    return ends


def _with_checksum(body):
    """A checkpoint file for *body* (everything before its ``C`` line)."""
    return body + f"C {zlib.crc32(body) & 0xFFFFFFFF:08x}\n".encode("ascii")


def _edit_id(blob, where, value_of):
    """*blob* with one snapshot's ``repro:id`` (not the first) replaced
    by ``value_of(ids)``, frames re-encoded (and a checkpoint's checksum
    recomputed) so that the file still reads as whole."""
    header = blob.find(b"\n") + 1
    frames, pos = [], header
    while pos < len(blob) and (frame := _read_frame(blob, pos)) is not None:
        frames.append(frame[:3])
        pos = frame[3]
    ids = [m for _, _, payload in frames for m in _ID.findall(payload)]
    target = int(where * (len(ids) - 1)) + 1
    seen = iter(range(len(ids)))

    def edit(match):
        return f'repro:id="{value_of(ids, target)}"' if next(seen) == target else match[0]

    body = blob[:header] + b"".join(
        _encode_frame(kind, _ID.sub(edit, payload), name) for kind, name, payload in frames
    )
    return _with_checksum(body) if pos < len(blob) else body  # the rest: a C line


def _mutate(blob, kind, where, bit):
    """*blob* damaged: *where* in [0, 1) picks the offset, cut or id."""
    if kind == "truncate":
        return blob[: int(where * len(blob))]
    if kind == "flip":
        at = int(where * len(blob))
        return blob[:at] + bytes([blob[at] ^ (1 << bit)]) + blob[at + 1:]
    if kind == "repeat_id":
        return _edit_id(blob, where, lambda ids, target: ids[0])
    return _edit_id(blob, where, lambda ids, target: ids[target].replace(".", ","))  # not an id


_FILES = [SEGMENT, OLDER_SEGMENT, CHECKPOINT, OLDER_CHECKPOINT]
_DAMAGE = st.tuples(
    st.sampled_from(_FILES), st.sampled_from(["flip", "truncate", "repeat_id", "malform_id"])
).filter(lambda damage: damage[0] != OLDER_CHECKPOINT or "_id" not in damage[1])  # no snapshot


@settings(max_examples=200, deadline=None)
@given(
    _DAMAGE,
    st.floats(min_value=0, max_value=1, exclude_max=True),
    st.integers(min_value=0, max_value=7),
)
@example((SEGMENT, "repeat_id"), 0.0, 0)
@example((CHECKPOINT, "repeat_id"), 0.0, 0)
@example((OLDER_SEGMENT, "repeat_id"), 0.0, 0)
@example((SEGMENT, "truncate"), 0.0, 0)
@example((SEGMENT, "flip"), 0.0, 0)
@example((SEGMENT, "malform_id"), 0.0, 0)  # was a bare ValueError from rebind_element_ids
def test_hostile_bytes_recover_a_prefix_or_raise_a_typed_error(damage, where, bit):
    path, kind = damage
    manager, wal, metrics = _world()
    disk = wal.disk
    original = disk.read(path)
    damaged = _mutate(original, kind, where, bit)
    disk.publish(path, damaged)
    reference = None
    if kind == "truncate" and path == SEGMENT:
        # What the clean prefix before the cut recovers.
        clean = max(end for end in _frame_ends(original) if end <= len(damaged))
        twin, twin_wal, _ = _world()
        twin_wal.disk.publish(path, original[:clean])
        reference = [(e.seq, e.txn_id) for e in twin_wal.load().entries], clean
    try:
        _restart(manager)
    except ReproError:
        return
    recovered = wal.last_recovery
    if reference is not None:
        entries, clean = reference
        assert [(e.seq, e.txn_id) for e in recovered.entries] == entries
        assert metrics.get("wal_torn_tails") == (clean != len(damaged) or clean == 0)
    if path == CHECKPOINT and kind in ("flip", "truncate"):  # the newest: the one restart reads
        assert metrics.get("checkpoints_torn") == 1
    seqs = [entry.seq for entry in recovered.entries]
    assert seqs == sorted(set(seqs))
