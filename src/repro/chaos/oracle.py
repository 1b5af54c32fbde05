"""The atomicity oracle: all-or-nothing verification after a chaos run.

The chaos workload is built so every forward effect is *addressable*:
each operation inserts exactly one ``<chaos txn="LABEL" step="STEP"/>``
marker per document its (possibly delegated) execution touches.  After
the run settles, the oracle sweeps every peer's documents, operation
log, transaction states and chain views and checks the paper's
relaxed-atomicity contract:

* a **committed** transaction's markers are present *exactly once* at
  every (peer, document, step) its operations reached — nothing lost,
  nothing double-applied;
* an **aborted** transaction left *no* markers anywhere — dynamic
  compensation (§3.1) fully undid every share, on every peer the
  invocation tree enlisted;
* no marker belongs to an unknown transaction (``orphan_effect``);
* every :class:`~repro.txn.wal.OperationLog` is empty — commit and
  compensation both truncate, so surviving entries mean a share was
  never settled (``log_residue``: the WAL ↔ document-state check);
* every transaction context or recorded outcome is terminal and
  matches the scheduler's outcome (``unfinished_context`` /
  ``outcome_mismatch``);
* no peer still holds an active-peer chain entry for a settled
  transaction (``orphan_chain``);
* a durable peer's on-disk WAL tail agrees with its in-memory log
  (``wal_tail_inconsistent``): the same live entry seqs, and no torn
  frames after a settled run — the disk ↔ memory check
  (``wal_tail_consistent`` predicate, see ``docs/DURABILITY.md``);
* every alive replica of a replicated document holds its primary's
  nodes, siblings taken as a multiset, after settlement
  (``replica_diverged``): WAL shipping
  plus settlement resync must leave the whole replica set convergent
  (see ``docs/REPLICATION.md``);
* under elastic sharding (``docs/SHARDING.md``) every shard routes to
  exactly one alive primary that actually holds it (``shard_lost``),
  no copy survives outside the directory's holder list
  (``shard_duplicated``), and the directory agrees with the
  consistent-hash ring's assignment (``directory_stale``).

When the cluster replicates documents, a committed transaction's
markers are expected on *every* holder of the touched document — the
shipped copies are part of the contract, not orphans.

Each failed predicate becomes a :class:`Violation`; runs are judged by
``violations == []``.  The exact predicates are documented (with their
paper references) in ``docs/CHAOS.md``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.obs.prof import PROF
from repro.txn.transaction import TransactionState
from repro.xmlstore.nodes import Element, Node
from repro.xmlstore.serializer import canonical_digest

#: Violation kinds the oracle can report.
VIOLATION_KINDS = (
    "effect_missing",
    "effect_duplicated",
    "compensation_missing",
    "orphan_effect",
    "log_residue",
    "unfinished_context",
    "outcome_mismatch",
    "orphan_chain",
    "wal_tail_inconsistent",
    "replica_diverged",
    "shard_lost",
    "shard_duplicated",
    "directory_stale",
)


@dataclass(frozen=True)
class Violation:
    """One broken atomicity predicate, addressed to where it was seen."""

    kind: str
    label: str = ""     # transaction label ("" when not attributable)
    peer: str = ""
    document: str = ""
    detail: str = ""

    def to_dict(self) -> Dict[str, str]:
        return {k: v for k, v in asdict(self).items() if v != ""}


@dataclass(frozen=True)
class ExpectedEffect:
    """One marker a committed transaction must have left exactly once."""

    peer: str
    document: str
    label: str
    step: str


def marker_counts(root: Element) -> Dict[Tuple[str, str], int]:
    """Count the ``<chaos>`` markers of each ``(txn, step)`` under *root*.

    One walk of the attached tree; a marker is an unprefixed ``chaos``
    element, and a missing attribute reads as ``""``."""
    counts: Dict[Tuple[str, str], int] = {}
    pending: List[Node] = [root]
    while pending:
        node = pending.pop()
        if node.__class__ is not Element:
            continue
        if node.name.local == "chaos" and not node.name.prefix:
            attributes = node.attributes
            key = (attributes.get("txn", ""), attributes.get("step", ""))
            counts[key] = counts.get(key, 0) + 1
        pending.extend(node.children)
    return counts


def unordered_digest(root: Element) -> str:
    """Digest of *root*'s subtree with siblings compared as a multiset.

    An element's digest covers its name, its attributes, the text before
    its first child element and the sorted list of its child elements'
    digests, each paired with the text that follows that child up to
    the next one (a childless, textless element's is that form's
    ``repr``, a SHA-256 hex digest otherwise).  Two trees that hold the
    same nodes (tags, attributes, text) in any sibling interleaving get
    the same digest: the primary applies operations in execution order
    while replicas apply shipped entries per channel, and independent
    inserts into one parent commute.  Node ids play no part.
    """
    order: List[Element] = []
    pending: List[Node] = [root]
    while pending:
        node = pending.pop()
        if node.__class__ is Element:
            order.append(node)
            pending.extend(node.children)
    digests: Dict[Element, str] = {}
    for element in reversed(order):  # every child before its parent
        lead = ""
        entries: List[List[str]] = []
        for child in element.children:
            if child.__class__ is Element:
                entries.append([digests.pop(child), ""])
            elif entries:
                entries[-1][1] += child.value
            else:
                lead += child.value
        form = (element.name.text, sorted(element.attributes.items()))
        if entries or lead:
            entries.sort()
            text = repr((form, lead, entries)).encode("utf-8")
            digests[element] = hashlib.sha256(text).hexdigest()
        else:
            digests[element] = repr(form)
    return digests[root]


class AtomicityOracle:
    """Sweeps a settled cluster against the expected-effect map.

    ``outcomes`` maps transaction label → terminal scheduler status
    (``committed`` / ``aborted_failure`` / ``aborted_conflict``);
    ``expected`` lists every marker each label would leave if (and only
    if) it committed; ``txn_ids`` maps label → the transaction ids its
    attempts used (final attempt last).
    """

    def __init__(
        self,
        outcomes: Mapping[str, str],
        expected: Sequence[ExpectedEffect],
        txn_ids: Mapping[str, Sequence[str]],
    ):
        self.outcomes = dict(outcomes)
        self.expected = list(expected)
        self.txn_ids = {label: list(ids) for label, ids in txn_ids.items()}
        #: txn id → (label, decided-committed?) for context checks.
        self._decisions: Dict[str, Tuple[str, bool]] = {}
        for label, ids in self.txn_ids.items():
            committed = self.outcomes.get(label) == "committed"
            for txn_id in ids[:-1]:
                # Earlier attempts of a retried transaction always abort.
                self._decisions[txn_id] = (label, False)
            if ids:
                self._decisions[ids[-1]] = (label, committed)

    # -- sweep ---------------------------------------------------------

    def check(self, peers: Mapping[str, object]) -> List[Violation]:
        """Run every predicate over *peers* (id → AXMLPeer, at least one)."""
        violations: List[Violation] = []
        violations.extend(self._check_documents(peers))
        violations.extend(self._check_logs(peers))
        violations.extend(self._check_contexts(peers))
        violations.extend(self._check_chains(peers))
        violations.extend(self._check_wal_tails(peers))
        violations.extend(self._check_replicas(peers))
        violations.extend(self._check_shards(peers))
        return sorted(
            violations,
            key=lambda v: (v.kind, v.label, v.peer, v.document, v.detail),
        )

    def _check_documents(self, peers: Mapping[str, object]) -> List[Violation]:
        counts: Dict[Tuple[str, str, str, str], int] = {}
        for peer_id, peer in peers.items():
            for doc_name, document in peer.documents.items():
                for (label, step), seen in marker_counts(document.document.root).items():
                    counts[peer_id, doc_name, label, step] = seen

        violations: List[Violation] = []
        replication = self._replication(peers)
        expected_keys: Set[Tuple[str, str, str, str]] = set()
        holders_of: Dict[Tuple[str, str], List[str]] = {}  # (document, peer) → holders
        for effect in self.expected:
            if self.outcomes.get(effect.label) != "committed":
                continue
            # With replication, the committed marker must reach *every*
            # holder of the document (WAL shipping copies it); without,
            # the holder list degenerates to the effect's own peer.
            place = (effect.document, effect.peer)
            if place not in holders_of:
                holders_of[place] = self._effect_holders(replication, effect)
            for holder in holders_of[place]:
                key = (holder, effect.document, effect.label, effect.step)
                expected_keys.add(key)
                seen = counts.get(key, 0)
                if seen == 0:
                    violations.append(Violation(
                        "effect_missing", effect.label, holder,
                        effect.document, f"step {effect.step}: 0 markers",
                    ))
                elif seen > 1:
                    violations.append(Violation(
                        "effect_duplicated", effect.label, holder,
                        effect.document, f"step {effect.step}: {seen} markers",
                    ))
        for key in sorted(key for key in counts if key not in expected_keys):
            peer_id, doc_name, label, step = key
            seen = counts[key]
            if label in self.outcomes and self.outcomes[label] != "committed":
                violations.append(Violation(
                    "compensation_missing", label, peer_id, doc_name,
                    f"step {step}: {seen} markers survived the abort",
                ))
            else:
                violations.append(Violation(
                    "orphan_effect", label, peer_id, doc_name,
                    f"step {step}: {seen} unexpected markers",
                ))
        return violations

    @staticmethod
    def _replication(peers: Mapping[str, object]):
        """The cluster's replication manager (via any peer's network)."""
        return next(iter(peers.values())).network.replication

    @staticmethod
    def _effect_holders(replication, effect: ExpectedEffect) -> List[str]:
        """Every peer that must carry *effect*'s marker after settlement."""
        if replication.directory.is_sharded(effect.document):
            # Sharded placement: the directory's holder list is
            # authoritative regardless of the workload's static
            # peer hint (the ring may have moved the shard).
            holders = replication.directory.document_holders(effect.document)
            if holders:
                return holders
        holders = replication.directory.document_holders(effect.document)
        if len(holders) > 1 and effect.peer in holders:
            return holders
        return [effect.peer]

    def _check_shards(self, peers: Mapping[str, object]) -> List[Violation]:
        """The elastic-sharding predicates (``docs/SHARDING.md``).

        * ``shard_lost`` — no alive directory holder actually carries
          the shard's document: every key must keep routing to a live
          copy after settlement;
        * ``shard_duplicated`` — a copy survives on a peer *outside*
          the directory's holder list (a migration source that was
          never trimmed, a resurrected stale copy);
        * ``directory_stale`` — the directory's holder list disagrees
          with the ring's assignment: routing truth drifted from
          placement truth.
        """
        directory = self._replication(peers).directory
        if not directory.sharded_docs:
            return []
        violations: List[Violation] = []
        for doc_name in sorted(directory.sharded_docs):
            holders = directory.document_holders(doc_name)
            alive = [
                h for h in holders
                if h in peers
                and not peers[h].disconnected
                and doc_name in peers[h].documents
            ]
            if not alive:
                violations.append(Violation(
                    "shard_lost", document=doc_name,
                    detail="no alive holder carries the document",
                ))
            for peer_id, peer in sorted(peers.items()):
                if doc_name in peer.documents and peer_id not in holders:
                    violations.append(Violation(
                        "shard_duplicated", peer=peer_id, document=doc_name,
                        detail="copy outside the directory's holder list",
                    ))
            ring = directory.ring
            if ring is not None:
                want = ring.lookup(doc_name)
                if want and list(holders) != list(want):
                    violations.append(Violation(
                        "directory_stale", document=doc_name,
                        detail=(
                            f"directory holders {list(holders)} != "
                            f"ring assignment {list(want)}"
                        ),
                    ))
        return violations

    def _check_replicas(self, peers: Mapping[str, object]) -> List[Violation]:
        """``replica_diverged``: every alive replica ≡ its primary.

        Equality is judged without node ids, and siblings are compared
        as a multiset (:func:`unordered_digest`) because the workload's
        only write is an insert into an unordered collection — a holder
        that applied the same logical operations in a different
        interleaving (local execution vs. shipped entries from two
        primaries) has converged; a holder with a missing, extra or
        altered node has not.  Dead holders are skipped (settlement
        reconnects everyone, so in practice this sweeps the full set).

        Byte-equal first: equal canonical digests mean byte-equal
        canonical text, trivially converged.  Only mismatching digests
        (which may still be the same multiset in a different sibling
        order) pay for the order-insensitive walk, computed lazily for
        the primary the first time any holder needs it.
        """
        replication = self._replication(peers)
        violations: List[Violation] = []
        for doc_name in sorted(replication.replicated_documents()):
            holders = replication.directory.document_holders(doc_name)
            if len(holders) < 2:
                continue
            primary = peers.get(holders[0])
            if primary is None or primary.disconnected:
                continue
            primary_doc = primary.documents.get(doc_name)
            if primary_doc is None:
                # No copy at the registered primary: divergence is
                # undefined — for sharded documents _check_shards flags
                # this as shard_lost.
                continue
            primary_digest = canonical_digest(primary_doc.document)
            primary_unordered: Optional[str] = None
            for holder in holders[1:]:
                peer = peers.get(holder)
                if peer is None or peer.disconnected:
                    continue
                document = peer.documents.get(doc_name)
                if document is None:
                    violations.append(Violation(
                        "replica_diverged", peer=holder, document=doc_name,
                        detail="replica copy missing",
                    ))
                    continue
                if canonical_digest(document.document) == primary_digest:
                    PROF.incr("replica_digest_matches")
                    continue
                if primary_unordered is None:
                    primary_unordered = unordered_digest(primary_doc.document.root)
                if unordered_digest(document.document.root) != primary_unordered:
                    violations.append(Violation(
                        "replica_diverged", peer=holder, document=doc_name,
                        detail=f"content differs from primary {holders[0]}",
                    ))
        return violations

    def _check_logs(self, peers: Mapping[str, object]) -> List[Violation]:
        violations: List[Violation] = []
        for peer_id, peer in sorted(peers.items()):
            residues: Dict[str, int] = {}
            for entry in peer.manager.log:
                residues[entry.txn_id] = residues.get(entry.txn_id, 0) + 1
            for txn_id, count in sorted(residues.items()):
                label = self._decisions.get(txn_id, ("", False))[0]
                violations.append(Violation(
                    "log_residue", label, peer_id,
                    detail=f"{count} live log entries for settled txn",
                ))
        return violations

    def _check_contexts(self, peers: Mapping[str, object]) -> List[Violation]:
        violations: List[Violation] = []
        for peer_id, peer in sorted(peers.items()):
            for txn_id, state in sorted(peer.manager.states().items()):
                label, committed = self._decisions.get(txn_id, ("", False))
                if state not in (TransactionState.COMMITTED, TransactionState.ABORTED):
                    violations.append(Violation(
                        "unfinished_context", label, peer_id,
                        detail=f"context left {state.value}",
                    ))
                    continue
                if txn_id not in self._decisions:
                    continue
                wanted = (
                    TransactionState.COMMITTED if committed
                    else TransactionState.ABORTED
                )
                if state is not wanted:
                    violations.append(Violation(
                        "outcome_mismatch", label, peer_id,
                        detail=(
                            f"context {state.value}, scheduler says "
                            f"{'committed' if committed else 'aborted'}"
                        ),
                    ))
        return violations

    def _check_chains(self, peers: Mapping[str, object]) -> List[Violation]:
        violations: List[Violation] = []
        for peer_id, peer in sorted(peers.items()):
            for txn_id in sorted(peer.chain_views()):
                label = self._decisions.get(txn_id, ("", False))[0]
                violations.append(Violation(
                    "orphan_chain", label, peer_id,
                    detail="chain entry survived settlement",
                ))
        return violations

    def _check_wal_tails(self, peers: Mapping[str, object]) -> List[Violation]:
        """``wal_tail_consistent``: on-disk WAL ≡ in-memory log.

        After settlement every commit/abort was mirrored to disk via
        tombstones, so a durable peer's WAL must recover exactly the
        live entry seqs its in-memory log holds, with no torn frames.
        Details carry counts and seqs only — never filesystem paths,
        which would break byte-identical summaries.

        With group commit a live peer may legitimately hold appended
        entries whose frames are not yet synced — that is the
        durability *window*, not a violation (a crash inside it discards
        the entries from memory and store alike).  The scan therefore
        reads what the live process sees, unsynced tail included: it
        checks "synced ∪ tail ≡ memory", which batching preserves and
        every real tail bug still breaks.
        """
        violations: List[Violation] = []
        for peer_id, peer in sorted(peers.items()):
            wal = peer.wal
            if wal is None:
                continue
            scan = wal.load()
            if scan.torn:
                violations.append(Violation(
                    "wal_tail_inconsistent", peer=peer_id,
                    detail="torn frames in a settled WAL",
                ))
            disk_seqs = [entry.seq for entry in scan.entries]
            memory_seqs = sorted(e.seq for e in peer.manager.log)
            if disk_seqs != memory_seqs:
                violations.append(Violation(
                    "wal_tail_inconsistent", peer=peer_id,
                    detail=(
                        f"disk live seqs {disk_seqs} != "
                        f"in-memory seqs {memory_seqs}"
                    ),
                ))
        return violations
