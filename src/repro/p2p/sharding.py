"""Elastic sharding: consistent-hash placement and live shard migration.

The paper's §1 storage model spreads AXML documents across peers, but
the seed placement was *static*: topology fixed at build time, replicas
picked once at registration, routing frozen against that map.  This
module makes placement elastic:

* :class:`ShardRing` — a seeded, deterministic consistent-hash ring
  (virtual nodes, crc32 point hashing, never builtin ``hash()`` whose
  ``PYTHONHASHSEED`` salting would leak nondeterminism into placement).
  ``lookup(key)`` walks the ring clockwise and returns the primary plus
  the replica set; adding or removing a member moves only the keys that
  land on the new/old arcs (≈ K/N of them), never shuffles the rest.

* :class:`PlacementDirectory` — the single source of routing truth.
  :class:`~repro.p2p.replication.ReplicationManager` stores its holder
  maps *in* the directory, the scheduler's ``_route_invoke`` and
  ``AXMLPeer.invoke`` consult it before dispatch, and migrations flip
  ownership here in one step.

* :class:`ShardCoordinator` — elastic membership (``add_peer`` /
  ``retire_peer`` recompute ring ownership and emit a minimal migration
  plan) and **live shard migration** with an atomic cutover: the source
  ships the document plus the committed WAL tail over the existing
  replication ship channels, defers in-flight transactions at a
  quiescence barrier and flips directory ownership in one step.  No
  §3.3 chain is rewritten: the source stays a holder, and a transaction
  with a live share at the source keeps needing it.  Every point is
  crash-safe (the ``crash_during_migration`` chaos fault kind): a crash
  parks the migration and settlement reconciles placement with the ring.

Correctness invariant: a migration target only ever receives *clean*
state.  The copy phase runs at a quiescence barrier (no in-flight
transaction touches the shard at the source), so the clone carries no
uncommitted effects; between copy and cutover the target is an ordinary
replica and only *committed* entries ship to it.  Aborts therefore
never need to chase a migrated copy.
"""

from __future__ import annotations

import bisect
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import P2PError
from repro.obs.prof import PROF
from repro.p2p.failure import crash_and_restart

#: Virtual seconds between two quiescence-barrier rechecks of a migration.
DEFER_DELAY = 0.05
#: Points each member contributes to a :class:`ShardRing`.
VNODES = 16


class ShardRing:
    """A seeded consistent-hash ring with virtual nodes.

    Every member contributes ``VNODES`` points on a 32-bit ring; a key
    hashes to a point and is owned by the next ``1 + replicas`` distinct
    members clockwise.  All hashing is :func:`zlib.crc32` over strings
    that include the ring *seed*, so the assignment is a pure function
    of ``(seed, members, key)`` — byte-stable across processes and
    immune to ``PYTHONHASHSEED``.
    """

    def __init__(
        self,
        seed: int,
        members: Sequence[str] = (),
        replicas: int = 0,
    ):
        if replicas < 0:
            raise P2PError(f"replicas must be >= 0, got {replicas}")
        self.seed = seed
        self.replicas = replicas
        self._members: List[str] = []
        #: Sorted ``(point, member)`` pairs — the ring itself.
        self._points: List[Tuple[int, str]] = []
        for member in members:
            self.add_member(member)

    # -- hashing ---------------------------------------------------------

    def _member_point(self, member: str, index: int) -> int:
        return zlib.crc32(f"ring:{self.seed}:{member}#{index}".encode("utf-8"))

    def _key_point(self, key: str) -> int:
        return zlib.crc32(f"key:{self.seed}:{key}".encode("utf-8"))

    # -- membership ------------------------------------------------------

    @property
    def members(self) -> List[str]:
        return list(self._members)

    def add_member(self, member: str) -> None:
        if member in self._members:
            return
        self._members.append(member)
        for index in range(VNODES):
            bisect.insort(self._points, (self._member_point(member, index), member))

    def remove_member(self, member: str) -> None:
        if member not in self._members:
            return
        self._members.remove(member)
        self._points = [p for p in self._points if p[1] != member]

    # -- lookup ----------------------------------------------------------

    def lookup(self, key: str, count: Optional[int] = None) -> List[str]:
        """The ``count`` (default ``1 + replicas``) distinct members that
        own *key*, primary first, walking clockwise from the key's point.
        """
        if not self._points:
            return []
        want = (1 + self.replicas) if count is None else count
        want = min(want, len(self._members))
        start = bisect.bisect_right(self._points, (self._key_point(key), "￿"))
        owners: List[str] = []
        for offset in range(len(self._points)):
            member = self._points[(start + offset) % len(self._points)][1]
            if member not in owners:
                owners.append(member)
                if len(owners) == want:
                    break
        return owners

    def primary(self, key: str) -> Optional[str]:
        owners = self.lookup(key, count=1)
        return owners[0] if owners else None

    def assignment(self, keys: Sequence[str]) -> Dict[str, List[str]]:
        """``{key: lookup(key)}`` for every key — the placement table."""
        return {key: self.lookup(key) for key in keys}

    def __repr__(self) -> str:
        return (
            f"ShardRing(seed={self.seed}, members={self._members}, "
            f"replicas={self.replicas})"
        )


def moved_keys(
    before: Dict[str, List[str]], after: Dict[str, List[str]]
) -> List[str]:
    """Keys whose owner list changed between two assignments, sorted."""
    return sorted(
        key for key in after if after[key] != before.get(key, [])
    )


class PlacementDirectory:
    """The single source of routing truth for documents and services.

    Every :class:`~repro.p2p.network.SimNetwork` creates one; it owns
    the holder maps :class:`~repro.p2p.replication.ReplicationManager`
    registers copies in, plus the *sharded* registries: which documents
    are placed by the ring, and which service method co-locates with
    each.  Routing layers (the scheduler's ``_route_invoke``,
    ``AXMLPeer.invoke``) ask :meth:`route_service` before dispatching —
    for non-sharded methods that answers ``None`` (keep your target).
    """

    def __init__(self, network):
        self.network = network
        #: document name → peer ids holding a copy (primary first).
        self.document_map: Dict[str, List[str]] = {}
        #: method name → peer ids hosting the service.
        self.service_map: Dict[str, List[str]] = {}
        #: sharded document → co-located service method ("" when none).
        self.sharded_docs: Dict[str, str] = {}
        #: sharded service method → its document key.
        self.sharded_methods: Dict[str, str] = {}
        #: ``(document, target)`` pairs with a migration copy in flight —
        #: committed entries shipped to these targets are counted as
        #: ``migration_entries_shipped`` (the WAL tail of the migration).
        self.active_migration_routes: Set[Tuple[str, str]] = set()
        #: The ring placing the sharded documents (set by the
        #: coordinator; the oracle's ``directory_stale`` predicate
        #: compares holder lists against it).
        self.ring: Optional[ShardRing] = None

    # -- shard registry --------------------------------------------------

    def mark_sharded(self, document: str, method: str = "") -> None:
        self.sharded_docs[document] = method
        if method:
            self.sharded_methods[method] = document

    def is_sharded(self, document: str) -> bool:
        return document in self.sharded_docs

    # -- lookups ---------------------------------------------------------

    def document_holders(self, document: str) -> List[str]:
        return list(self.document_map.get(document, []))

    def service_holders(self, method: str) -> List[str]:
        return list(self.service_map.get(method, []))

    def primary(self, document: str) -> Optional[str]:
        holders = self.document_map.get(document, [])
        return holders[0] if holders else None

    def route_service(self, method: str) -> Optional[str]:
        """Where an invocation of *method* should go, or ``None`` when
        the method is not shard-placed (caller keeps its own target).

        Sharded methods route to the current primary, falling back to
        the first alive holder when the primary is down (the holder list
        is kept primary-first by :meth:`move_to_front`).
        """
        if method not in self.sharded_methods:
            return None
        PROF.incr("directory_lookups")
        holders = self.service_map.get(method, [])
        for holder in holders:
            if self.network.is_alive(holder):
                return holder
        return holders[0] if holders else None

    # -- ownership flips -------------------------------------------------

    def flip_primary(self, document: str, new_primary: str) -> None:
        """Atomic cutover: *new_primary* becomes first in the document's
        holder list and in its co-located service's holder list.  A
        single in-place reorder — every routing layer reads these lists,
        so the flip is one step for the whole system.
        """
        self.move_to_front(self.document_map.get(document, []), new_primary)
        method = self.sharded_docs.get(document, "")
        if method:
            self.move_to_front(self.service_map.get(method, []), new_primary)

    @staticmethod
    def move_to_front(holders: List[str], peer_id: str) -> None:
        """Make *peer_id* the primary of a holder list it is in (in
        place: every routing layer reads these lists)."""
        if peer_id in holders:
            holders.remove(peer_id)
            holders.insert(0, peer_id)


@dataclass
class ShardMigration:
    """One live migration of a shard (document + co-located service)."""

    document: str
    method: str
    source: str
    target: str
    #: ``pending`` → ``copied`` → ``done`` | ``aborted``.
    state: str = "pending"
    #: Barrier rechecks consumed so far (bounded by ``max_defers``).
    defer_count: int = 0
    #: Distinct in-flight transactions the barrier deferred behind.
    deferred: Set[str] = field(default_factory=set)


class ShardCoordinator:
    """Elastic membership and live migration over a :class:`ShardRing`.

    ``add_peer``/``retire_peer`` recompute ring ownership, count the
    moved keys (``ring_moves``) and start one :class:`ShardMigration`
    per shard whose primary changed.  A migration proceeds in two
    barrier-guarded phases, both scheduled on the simulation clock:

    1. **copy** — waits until no in-flight transaction touches the shard
       at the source, then clones document + service onto the target
       (clean state only) and registers the target as a holder.  From
       here to cutover the target is an ordinary replica: committed
       entries ship to it over the normal channels (counted as
       ``migration_entries_shipped`` — the WAL tail).
    2. **cutover** — waits for quiescence again (newly arrived
       transactions are counted as ``migration_deferred_txns``), then
       flips directory ownership in one step.

    A crash of source or target at either point (the
    ``crash_during_migration`` fault) aborts the migration;
    :meth:`settle` reconciles the directory with the ring afterwards, so
    placement always converges.
    """

    def __init__(
        self,
        network,
        ring: ShardRing,
        cutover_delay: float = 0.05,
        max_defers: int = 12,
    ):
        self.network = network
        self.replication = network.replication
        self.directory: PlacementDirectory = network.directory
        self.directory.ring = ring
        self.ring = ring
        self.cutover_delay = cutover_delay
        self.max_defers = max_defers
        self._migrations: List[ShardMigration] = []
        #: FIFO of armed ``crash_during_migration`` faults:
        #: ``(role, point, restart_delay)`` consumed when a migration
        #: reaches that point.
        self._armed: List[Tuple[str, str, float]] = []

    # -- shard registry --------------------------------------------------

    def register_shard(self, document: str, method: str = "") -> None:
        self.directory.mark_sharded(document, method)

    # -- elastic membership ----------------------------------------------

    def add_peer(self, peer_id: str) -> None:
        """Join *peer_id* into the ring and migrate the shards it now owns."""
        if peer_id in self.ring.members:
            return
        before = self._assignment()
        self.ring.add_member(peer_id)
        self.network.metrics.incr("shard_joins")
        self._rebalance(before)

    def retire_peer(self, peer_id: str) -> None:
        """Drain *peer_id* out of the ring (its shards migrate away).

        Refused when retiring would leave fewer members than the
        replication factor needs — the ring never shrinks below
        ``1 + replicas`` members.
        """
        if peer_id not in self.ring.members:
            return
        if len(self.ring.members) <= 1 + self.ring.replicas:
            return
        before = self._assignment()
        self.ring.remove_member(peer_id)
        self.network.metrics.incr("shard_retires")
        self._rebalance(before)

    def _assignment(self) -> Dict[str, List[str]]:
        return self.ring.assignment(sorted(self.directory.sharded_docs))

    def _rebalance(self, before: Dict[str, List[str]]) -> None:
        after = self._assignment()
        moves = moved_keys(before, after)
        if moves:
            self.network.metrics.incr("ring_moves", len(moves))
        for document in sorted(after):
            owners = after[document]
            if not owners:
                continue
            current = self.directory.primary(document)
            if current is not None and current != owners[0]:
                self.start_migration(document, owners[0])
        # Replica-set-only changes (no primary move) are reconciled at
        # settlement — they carry no routing urgency mid-run.

    # -- live migration --------------------------------------------------

    def start_migration(self, document: str, target: str) -> Optional[ShardMigration]:
        if any(m.document == document for m in self._migrations):
            return None  # one migration per shard; settle reconciles the rest
        source = self.directory.primary(document)
        if source is None or source == target:
            return None
        method = self.directory.sharded_docs.get(document, "")
        migration = ShardMigration(document, method, source, target)
        self._migrations.append(migration)
        self.network.events.schedule(0.0, lambda: self._run_phase(migration, "copy"))
        return migration

    def _run_phase(self, migration: ShardMigration, point: str) -> None:
        """One barrier-guarded phase: ``copy``, then ``cutover``."""
        if not self._at_barrier(migration, point):
            return
        if point == "cutover":
            self._finish(migration)
            return
        self._copy_shard(migration)
        migration.state = "copied"
        self.directory.active_migration_routes.add(
            (migration.document, migration.target)
        )
        self.network.events.schedule(
            self.cutover_delay, lambda: self._run_phase(migration, "cutover")
        )

    def _copy_shard(self, migration: ShardMigration) -> None:
        """Ship the shard to the target: document clone (ids preserved,
        clean state — the quiescence barrier already held) plus the
        co-located service."""
        if migration.target not in self.directory.document_map.get(
            migration.document, []
        ):
            self.replication.replicate_document(migration.document, migration.target)
        if migration.method and migration.target not in self.directory.service_map.get(
            migration.method, []
        ):
            self.replication.replicate_service(migration.method, migration.target)

    def _finish(self, migration: ShardMigration) -> None:
        """Atomic cutover: flip directory ownership in one step.

        The source *remains* a holder — a crashed source resolving an
        in-doubt share later must still ship its entries, which requires
        holder membership on the commit path; settlement trims holder
        lists back to the ring's assignment.
        """
        self.directory.flip_primary(migration.document, migration.target)
        self.directory.active_migration_routes.discard(
            (migration.document, migration.target)
        )
        migration.state = "done"
        self._migrations.remove(migration)
        self.network.metrics.incr("migrations")

    def _abort(self, migration: ShardMigration) -> None:
        migration.state = "aborted"
        self.directory.active_migration_routes.discard(
            (migration.document, migration.target)
        )
        self._migrations.remove(migration)
        self.network.metrics.incr("migration_aborts")

    # -- barriers --------------------------------------------------------

    def _at_barrier(self, migration: ShardMigration, point: str) -> bool:
        """True when *point* may run now: the migration is still planned,
        both endpoints survived the faults armed for this point and the
        shard is quiescent; else the phase was rescheduled or aborted."""
        if migration not in self._migrations:
            return False
        self._consume_armed(point, migration)
        alive = self.network.is_alive
        if not (alive(migration.source) and alive(migration.target)):
            self._abort(migration)
            return False
        blocked = self._inflight_txns(migration)
        if blocked and not self._defer(migration, blocked, point):
            self._abort(migration)
        return not blocked

    def _defer(self, migration: ShardMigration, blocked: Set[str], point: str) -> bool:
        """Count newly deferred transactions and reschedule the phase;
        False when the defer budget is spent (the migration parks and
        settlement takes over)."""
        fresh = blocked - migration.deferred
        if fresh:
            self.network.metrics.incr("migration_deferred_txns", len(fresh))
            migration.deferred |= fresh
        migration.defer_count += 1
        if migration.defer_count > self.max_defers:
            return False
        self.network.events.schedule(DEFER_DELAY, lambda: self._run_phase(migration, point))
        return True

    def _inflight_txns(self, migration: ShardMigration) -> Set[str]:
        """Unfinished transactions at the source with log entries
        touching the migrating document — the quiescence predicate."""
        peer = self.network.get_peer(migration.source)
        blocked: Set[str] = set()
        for txn_id, context in peer.manager.contexts.items():
            if context.is_finished:
                continue
            if any(
                entry.document_name == migration.document
                for entry in peer.manager.log.entries_for(txn_id)
            ):
                blocked.add(txn_id)
        return blocked

    # -- crash faults ----------------------------------------------------

    def arm_crash(self, role: str, point: str, restart_delay: float) -> None:
        """Queue a ``crash_during_migration`` fault: when the next
        migration reaches *point* (``copy``/``cutover``), crash its
        *role* endpoint (``source``/``target``) and schedule an
        in-doubt rejoin after *restart_delay*."""
        self._armed.append((role, point, restart_delay))

    def _consume_armed(self, point: str, migration: ShardMigration) -> None:
        for index, (role, armed_point, delay) in enumerate(self._armed):
            if armed_point != point:
                continue
            del self._armed[index]
            victim = migration.source if role == "source" else migration.target
            crash_and_restart(self.network, victim, delay)
            return

    # -- settlement ------------------------------------------------------

    def settle(self) -> None:
        """Reconcile placement with the ring after the run drains.

        Parked/aborted migrations, crash-interrupted copies and
        replica-set changes all converge here: every sharded key ends up
        held by exactly its ring assignment (primary first), stray
        copies are dropped, missing copies are cloned from a surviving
        holder.  Runs after ``ReplicationManager.settle`` so clone
        sources are already converged.
        """
        for migration in list(self._migrations):
            self._abort(migration)
        self._armed.clear()
        for document in sorted(self.directory.sharded_docs):
            want = self.ring.lookup(document)
            if not want:
                continue
            holders = self.directory.document_map.setdefault(document, [])
            method = self.directory.sharded_docs.get(document, "")
            for target in want:
                target_peer = self.network.get_peer(target)
                if document not in target_peer.documents:
                    source = next(
                        (
                            h
                            for h in holders
                            if self.network.is_alive(h)
                            and document in self.network.get_peer(h).documents
                        ),
                        None,
                    )
                    if source is None:
                        continue  # no surviving copy: the oracle flags shard_lost
                    self.replication._copy_document(document, source, target)
                if method and target not in self.directory.service_map.get(method, []):
                    self.replication.replicate_service(method, target)
            if holders and holders[0] != want[0]:
                # The primary move a parked migration never finished.
                self.network.metrics.incr("migrations")
            for stray in holders:
                if stray not in want:
                    self.network.get_peer(stray).documents.pop(document, None)
            holders[:] = list(want)
            if method:
                service_holders = self.directory.service_map.setdefault(method, [])
                service_holders[:] = list(want)
        self.directory.active_migration_routes.clear()
