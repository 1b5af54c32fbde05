"""Document and service replication across peers.

"AXML documents (or fragments of the documents) and services may be
replicated on multiple peers" [2].  Replication matters transactionally
in two places:

* forward recovery may retry an invocation "using a replicated peer"
  (§3.2's ``axml:retry`` with an alternative ``axml:sc``);
* peer-independent compensation can be executed against a replica when
  the original provider disconnected — the combination that makes
  atomicity guaranteeable for non-super peers (see
  :mod:`repro.txn.spheres`).

Originally the manager kept replicas *content-synchronized at
replication time* only, which made retry-on-replica succeed strictly by
construction.  It is now a real subsystem (see ``docs/REPLICATION.md``):

* **WAL shipping** — when a holder commits a transaction share, the
  committed :class:`~repro.txn.wal.LogEntry` objects touching replicated
  documents are streamed to every other holder over the simulated
  network (:class:`~repro.p2p.messages.WalShipMessage`, batched by
  ``ship_batch``).  Replicas redo each entry from its change records,
  by node id (every holder carries the same ids; no Select runs on a
  replica), and return acked high-water marks
  (:class:`~repro.p2p.messages.WalShipAck`).
* **Deterministic failover** — when a primary dies mid-transaction,
  :func:`repro.txn.recovery.attempt_forward_recovery` asks
  :meth:`failover_selector` for a replacement: the most-caught-up live
  replica, ties broken by peer id (never dict-iteration order).  The
  chosen replica first replays its shipped-but-unapplied tail, then
  becomes the new primary for the dead peer's replicated documents.
* **Settlement** — :meth:`settle` flushes every pending ship buffer,
  lifts lag, applies remaining inboxes, and re-synchronizes stale
  holders (crash-restarted peers) by full content copy from the current
  primary, so the chaos oracle's ``replica_diverged`` predicate can
  demand byte-equal replica content after every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.axml.document import AXMLDocument
from repro.errors import P2PError
from repro.p2p.messages import WalShipAck, WalShipMessage
from repro.query.ast import ActionType
from repro.query.update import replay_records
from repro.txn.wal import LogEntry, entry_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only (network imports replication)
    from repro.p2p.network import SimNetwork


@dataclass
class _ShipChannel:
    """Shipping state of one (source holder → replica holder) pair.

    Seq numbers live in the *source* peer's WAL seq space.  ``pending``
    holds committed entries not yet put on the wire (the ship batch);
    ``inbox`` holds delivered entries the replica has not applied yet
    (it is lagging, or delivery raced settlement).
    """

    source: str
    replica: str
    pending: List[LogEntry] = field(default_factory=list)
    #: Logical bytes of ``pending``, added as each entry joins it.
    pending_bytes: int = 0
    inbox: List[LogEntry] = field(default_factory=list)
    #: Highest seq acked by the replica / applied.
    acked_seq: int = 0
    applied_seq: int = 0
    #: Seqs shipped but not yet acked (the in-flight window).
    unacked: List[int] = field(default_factory=list)

    @property
    def received_seq(self) -> int:
        """How far the replica *could* catch up by replaying its inbox."""
        inbox_max = max((e.seq for e in self.inbox), default=0)
        return max(self.applied_seq, inbox_max)


class ReplicationManager:
    """Replica placement, WAL shipping, and deterministic failover.

    Tracks which peers hold which documents/services, ships committed
    WAL entries between holders, and selects failover targets
    (``docs/REPLICATION.md``).  Every network owns one
    (``network.replication``)."""

    def __init__(self, network: SimNetwork):
        self.network = network
        #: Committed entries per channel buffered before one ship message.
        self.ship_batch = 1
        #: The network's placement directory — the only holder maps, so
        #: shard migrations flipping directory ownership are instantly
        #: visible to replication, failover and routing.
        self.directory = network.directory
        #: Methods that were explicitly *replicated* (not merely hosted
        #: on several peers) — the only ones failover may retarget.
        self._replicated_methods: Set[str] = set()
        #: (source peer, replica peer) → shipping channel.
        self._channels: Dict[Tuple[str, str], _ShipChannel] = {}
        #: Replicas currently refusing to apply/ack (the ``lag_replica``
        #: chaos fault); frames accumulate in their inboxes.
        self._lagged: Set[str] = set()
        #: (document, holder) pairs whose replica content must be
        #: re-synchronized from the primary at settlement (crash
        #: restarts, failed ship deliveries).
        self._stale: Set[Tuple[str, str]] = set()
        #: Logical operations already present on a peer — the dedup set
        #: that keeps a failed-over share from being applied twice when
        #: both the old and the new primary eventually ship it.
        self._applied_keys: Set[Tuple[str, str, str, str]] = set()

    # -- documents ---------------------------------------------------------

    def register_primary(self, document_name: str, peer_id: str) -> None:
        holders = self.directory.document_map.setdefault(document_name, [])
        if peer_id not in holders:
            holders.insert(0, peer_id)

    def replicate_document(self, document_name: str, to_peer_id: str) -> AXMLDocument:
        """Copy the document (with node ids) onto another peer.

        Preserved ids are what make a replica usable for compensation:
        compensating actions address nodes by id, and the replica resolves
        the same ids.
        """
        holders = self.directory.document_holders(document_name)
        if not holders:
            raise P2PError(f"no peer holds document {document_name!r}")
        replica = self._copy_document(document_name, holders[0], to_peer_id)
        registered = self.directory.document_map[document_name]
        if to_peer_id not in registered:
            registered.append(to_peer_id)
        self.network.metrics.incr("documents_replicated")
        return replica

    def _copy_document(
        self, document_name: str, source: str, target: str
    ) -> AXMLDocument:
        """Host on *target* a structural clone of *source*'s copy: same
        trees, same node ids, independent storage.  Holder bookkeeping
        stays with the caller."""
        source_peer = self.network.get_peer(source)
        target_peer = self.network.get_peer(target)
        source_document = source_peer.get_axml_document(document_name).document
        copy = source_document.clone_tree(preserve_ids=True, name=document_name)
        return target_peer.host_document(AXMLDocument(copy, name=document_name))

    def replicated_documents(self) -> List[str]:
        """Names of documents with more than one holder, sorted."""
        return sorted(
            name for name, holders in self.directory.document_map.items()
            if len(holders) > 1
        )

    # -- services -------------------------------------------------------------

    def register_service(self, method_name: str, peer_id: str) -> None:
        holders = self.directory.service_map.setdefault(method_name, [])
        if peer_id not in holders:
            holders.append(peer_id)

    def replicate_service(self, method_name: str, to_peer_id: str) -> None:
        """Mirror a service implementation onto another peer."""
        holders = self.directory.service_map.get(method_name, [])
        if not holders:
            raise P2PError(f"no peer hosts service {method_name!r}")
        source_peer = self.network.get_peer(holders[0])
        target_peer = self.network.get_peer(to_peer_id)
        service = source_peer.registry.lookup(method_name)
        target_peer.host_service(service)
        self.register_service(method_name, to_peer_id)
        self._replicated_methods.add(method_name)
        self.network.metrics.incr("services_replicated")

    def is_replicated_method(self, method_name: str) -> bool:
        """Whether the service was explicitly replicated (failover- and
        dedup-eligible); merely hosting it on several peers is not."""
        return method_name in self._replicated_methods

    # -- WAL shipping: primary side ----------------------------------------

    def _channel(self, source: str, replica: str) -> _ShipChannel:
        channel = self._channels.get((source, replica))
        if channel is None:
            channel = self._channels[source, replica] = _ShipChannel(source, replica)
        return channel

    @staticmethod
    def _entry_key(peer_id: str, entry: LogEntry) -> Tuple[str, str, str, str]:
        return (peer_id, entry.txn_id, entry.document_name, entry.action_xml)

    def on_committed(
        self, source_peer: str, txn_id: str, entries: Sequence[LogEntry]
    ) -> None:
        """A holder committed its share of *txn_id*: route the committed
        entries that touch replicated documents to every other holder.

        Called by the peer **after** ``commit_local`` succeeded (whose
        truncate tombstone is itself a WAL flush barrier, so every
        shipped entry is already durable at the source — the write-ahead
        rule extends across the wire).
        """
        # Write-ahead across the wire: nothing ships unless it is durable
        # at the source.  Normally the commit tombstone's flush barrier
        # already guarantees this; the explicit flush is the safety net
        # for callers that bypass the truncate path.
        wal = self.network.get_peer(source_peer).wal
        if wal is not None and entries:
            if max(e.seq for e in entries) > wal.last_durable_seq:
                wal.flush()
        shipped_any = False
        for entry in entries:
            holders = self.directory.document_map.get(entry.document_name, [])
            if len(holders) < 2 or source_peer not in holders:
                continue
            # The committing peer's own copy already shows this logical
            # operation; remember that so a later failover ship of the
            # same operation from another holder is not applied twice.
            self._applied_keys.add(self._entry_key(source_peer, entry))
            size = entry_bytes(entry)
            for holder in holders:
                if holder == source_peer:
                    continue
                channel = self._channel(source_peer, holder)
                channel.pending.append(entry)
                channel.pending_bytes += size
                if (
                    entry.document_name,
                    holder,
                ) in self.directory.active_migration_routes:
                    # The WAL tail of a live shard migration: committed
                    # between the copy barrier and the cutover.
                    self.network.metrics.incr("migration_entries_shipped")
                shipped_any = True
        if not shipped_any:
            return
        for (source, _replica), channel in sorted(self._channels.items()):
            if source == source_peer and len(channel.pending) >= self.ship_batch:
                self._ship(channel)

    def _ship(self, channel: _ShipChannel) -> None:
        """Put one channel's pending batch on the wire."""
        if not channel.pending:
            return
        batch, size = channel.pending, channel.pending_bytes
        channel.pending, channel.pending_bytes = [], 0
        message = WalShipMessage(
            from_peer=channel.source,
            to_peer=channel.replica,
            entries=tuple(batch),
            first_seq=batch[0].seq,
            last_seq=batch[-1].seq,
        )
        metrics = self.network.metrics
        metrics.incr("ship_frames", len(batch))
        metrics.incr("ship_bytes", size)
        # Record the in-flight window *before* the send: delivery is
        # synchronous in the simulator, so the replica's ack can arrive
        # inside the notify call — seqs added afterwards would never be
        # pruned and the window would read as permanently lagged.
        mark = len(channel.unacked)
        channel.unacked.extend([e.seq for e in batch])
        metrics.record_value("ship_lag", float(len(channel.unacked)))
        delivered = self.network.notify(channel.source, channel.replica, message)
        if not delivered:
            # Receiver (or sender) dead: nothing was delivered, so no ack
            # pruned the window.  Restore both; the next attempt (at the
            # latest, settlement's flush) retries the batch.  Dropping it
            # would under-replicate a holder that may later be *promoted*.
            assert len(channel.unacked) == mark + len(batch) and not channel.pending
            channel.pending, channel.pending_bytes = batch, size
            del channel.unacked[mark:]
            metrics.incr("ship_failures")

    # -- WAL shipping: replica side ----------------------------------------

    def on_ship(self, replica_peer: str, message: WalShipMessage) -> None:
        """A replica received a batch of shipped entries."""
        channel = self._channel(message.from_peer, replica_peer)
        channel.inbox.extend(message.entries)
        if replica_peer in self._lagged:
            return  # entries accumulate; no apply, no ack
        self._apply_inbox(channel)
        self._send_ack(channel)

    def _apply_inbox(self, channel: _ShipChannel) -> None:
        """Apply a channel's delivered-but-unapplied entries in seq order.

        Entries for a (txn, document) the receiver itself holds live log
        entries for are *deferred*, not dropped: the receiver's own share
        is a different operation of the same transaction (shipping it now
        would race the receiver's own commit/abort decision), so the
        entry stays in the inbox until that share resolves — at the
        latest, settlement's apply pass after every in-doubt share was
        decided.  Dropping it instead would silently lose a sibling
        operation's effect on this replica.
        """
        if not channel.inbox:
            return
        peer = self.network.get_peer(channel.replica)
        metrics = self.network.metrics
        deferred: List[LogEntry] = []
        for entry in sorted(channel.inbox, key=lambda e: e.seq):
            key = self._entry_key(channel.replica, entry)
            if key in self._applied_keys:
                # Already present: this peer executed the same logical
                # operation itself (it was the failover target) or got it
                # from another holder.
                channel.applied_seq = max(channel.applied_seq, entry.seq)
                metrics.incr("ship_dedup_skips")
                continue
            if self._has_own_share(peer, entry):
                # The receiving holder has its own in-doubt log entries
                # for this (txn, document): don't pre-apply — keep the
                # frame for after the receiver's share resolves.
                deferred.append(entry)
                metrics.incr("ship_deferred_entries")
                continue
            channel.applied_seq = max(channel.applied_seq, entry.seq)
            action = entry.action
            if action.action_type is ActionType.QUERY:
                # Re-running a query would re-invoke the services it
                # materialized; what they changed is resynced at settlement
                # (replaying the records waits for a defined apply order).
                if entry.records:
                    self._stale.add((entry.document_name, channel.replica))
                    metrics.incr("ship_stale_queries")
                else:
                    metrics.incr("ship_skipped_queries")
                continue
            self._applied_keys.add(key)
            document = peer.get_axml_document(entry.document_name).document
            if replay_records(document, action, entry.records):
                metrics.incr("replica_applied_entries")
            else:
                # A logged id is not live here (say, a copy re-hosted
                # from checkpoint text): settlement's resync repairs it.
                self._stale.add((entry.document_name, channel.replica))
                metrics.incr("ship_unresolved_entries")
        channel.inbox[:] = deferred

    @staticmethod
    def _has_own_share(peer, entry: LogEntry) -> bool:
        manager = getattr(peer, "manager", None)
        if manager is None:
            return False
        return any(
            own.document_name == entry.document_name
            for own in manager.log.entries_for(entry.txn_id)
        )

    def _send_ack(self, channel: _ShipChannel) -> None:
        ack = WalShipAck(
            from_peer=channel.replica,
            to_peer=channel.source,
            acked_seq=channel.applied_seq,
        )
        self.network.notify(channel.replica, channel.source, ack)

    def on_ack(self, source_peer: str, message: WalShipAck) -> None:
        """The primary learned a replica's applied high-water mark."""
        channel = self._channel(source_peer, message.from_peer)
        channel.acked_seq = max(channel.acked_seq, message.acked_seq)
        channel.unacked = [s for s in channel.unacked if s > channel.acked_seq]

    # -- lag fault ---------------------------------------------------------

    def lag_replica(self, peer_id: str, duration: float = 0.0) -> None:
        """Chaos fault: *peer_id* stops applying/acking shipped frames
        (they pile up in its inboxes) until *duration* virtual seconds
        pass — or settlement, whichever comes first."""
        self._lagged.add(peer_id)
        self.network.metrics.incr("replica_lag_events")
        if duration > 0:
            self.network.events.schedule(
                duration, lambda: self.unlag_replica(peer_id)
            )

    def unlag_replica(self, peer_id: str) -> None:
        if peer_id not in self._lagged:
            return
        self._lagged.discard(peer_id)
        for (_source, replica), channel in sorted(self._channels.items()):
            if replica != peer_id or not channel.inbox:
                continue
            if not self.network.is_alive(peer_id):
                continue
            self._apply_inbox(channel)
            self._send_ack(channel)

    # -- failover ----------------------------------------------------------

    def caught_up_seq(self, source_peer: str, replica_peer: str) -> int:
        """How far *replica_peer* can catch up with *source_peer*'s WAL
        (applied frames plus the replayable inbox tail)."""
        channel = self._channels.get((source_peer, replica_peer))
        if channel is None:
            return 0
        return channel.received_seq

    def failover_selector(
        self, dead_peer: str, method_name: str
    ) -> Optional[Callable[[], Optional[str]]]:
        """A per-retry selector for ``attempt_forward_recovery`` — or
        ``None`` when the service was never replicated (a method merely
        *hosted* on several peers is not failover-eligible), so legacy
        (no-replication) paths are byte-identical."""
        if method_name not in self._replicated_methods:
            return None
        others = [
            p for p in self.directory.service_map.get(method_name, []) if p != dead_peer
        ]
        if not others:
            return None
        return lambda: self.select_failover(dead_peer, method_name)

    def select_failover(self, dead_peer: str, method_name: str) -> Optional[str]:
        """Pick and prepare the failover target for *method_name* after
        *dead_peer* died: the most-caught-up live replica, ties broken by
        peer id (deterministic — never dict-iteration order).  The chosen
        replica replays its shipped tail first and is promoted to primary
        for the dead peer's replicated documents."""
        candidates = [
            p
            for p in self.directory.service_map.get(method_name, [])
            if p != dead_peer and self.network.is_alive(p)
        ]
        if not candidates:
            return None
        ranked = sorted(
            candidates, key=lambda p: (-self.caught_up_seq(dead_peer, p), p)
        )
        chosen = ranked[0]
        metrics = self.network.metrics
        chosen_seq = self.caught_up_seq(dead_peer, chosen)
        for passed in ranked[1:]:
            if self.caught_up_seq(dead_peer, passed) < chosen_seq:
                # A naive pick could have landed on this less-caught-up
                # replica and served stale state.
                metrics.incr("stale_reads_prevented")
        self._catch_up(dead_peer, chosen)
        self._promote(dead_peer, chosen)
        metrics.incr("failovers")
        return chosen

    def _catch_up(self, dead_peer: str, chosen: str) -> None:
        """Replay the shipped-but-unapplied tail on the failover target."""
        self._lagged.discard(chosen)
        channel = self._channels.get((dead_peer, chosen))
        if channel is None:
            return
        replayed = len(channel.inbox)
        if replayed:
            self._apply_inbox(channel)
            self.network.metrics.incr("failover_replay_entries", replayed)

    def _promote(self, dead_peer: str, chosen: str) -> None:
        """Make *chosen* the primary for every replicated document whose
        current primary is unavailable (and that *chosen* also holds).

        "Unavailable" covers both *dead_peer* itself and a previously
        promoted primary that has since died (the double-failover case:
        invocations still name the original provider, so the selector is
        asked about *dead_peer* while ``holders[0]`` is someone else)."""
        for name, holders in sorted(self.directory.document_map.items()):
            if len(holders) < 2 or chosen not in holders:
                continue
            primary = holders[0]
            if primary == dead_peer or not self.network.is_alive(primary):
                self.directory.move_to_front(holders, chosen)

    # -- membership events -------------------------------------------------

    def on_peer_rejoined(self, peer_id: str) -> None:
        """A crash-restarted peer's replica copies may have missed ships
        (and its own in-doubt shares resolve against a possibly moved
        primary): schedule every replicated document it holds for a
        settlement resync."""
        for name, holders in self.directory.document_map.items():
            if len(holders) > 1 and peer_id in holders:
                self._stale.add((name, peer_id))

    # -- settlement --------------------------------------------------------

    def settle(self, drain: Optional[Callable[[], None]] = None) -> None:
        """Deterministic end-of-run convergence.

        1. lift every lag fault (applying accumulated inboxes);
        2. flush every pending ship buffer;
        3. *drain* the event queue (delayed deliveries), then apply any
           frames that were still in flight;
        4. re-synchronize stale holders by full content copy from the
           current primary.

        After this, every alive holder of a replicated document must
        equal its primary — the oracle's ``replica_diverged`` predicate.
        """
        for peer_id in sorted(self._lagged):
            self.unlag_replica(peer_id)
        for _key, channel in sorted(self._channels.items()):
            self._ship(channel)
        if drain is not None:
            drain()
        for _key, channel in sorted(self._channels.items()):
            if channel.inbox and self.network.is_alive(channel.replica):
                self._apply_inbox(channel)
                self._send_ack(channel)
        if drain is not None:
            drain()
        for name, holder in sorted(self._stale):
            self._resync(name, holder)
        self._stale.clear()

    def _resync_source(self, document_name: str, holder: str) -> Optional[str]:
        """The holder to copy from: the first alive holder that is NOT
        itself stale.

        The primary is preferred (holders order), but it is not always
        eligible — a replica promoted by failover and then crashed is
        still ``holders[0]`` yet missed ships while it was down.  Every
        alive non-stale holder is a superset at this point: ships route
        all-to-all per document and the pending buffers were flushed
        before the resync phase, so its content is the converged state.
        """
        for candidate in self.directory.document_map.get(document_name, []):
            if candidate == holder or (document_name, candidate) in self._stale:
                continue
            if self.network.is_alive(candidate):
                return candidate
        return None

    def _resync(self, document_name: str, holder: str) -> None:
        """State transfer: overwrite *holder*'s replica content with a
        current holder's (crash restarts can leave a holder beyond
        incremental repair — e.g. its share was resolved after the
        primary role moved)."""
        holders = self.directory.document_map.get(document_name, [])
        if holder not in holders or not self.network.is_alive(holder):
            return
        source = self._resync_source(document_name, holder)
        if source is None:
            return
        self._copy_document(document_name, source, holder)
        self.network.metrics.incr("replica_resyncs")
