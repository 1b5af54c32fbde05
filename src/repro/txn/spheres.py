"""Spheres of atomicity (§3.3, after Alonso & Hagen [18]).

"It might not be possible to guarantee atomicity as long as peer
disconnection is possible.  Here, we can use the notions of Spheres of
Atomicity to check if atomicity is guaranteed, e.g., atomicity may still
be guaranteed for a transaction if all the involved peers (for that
transaction) are super peers."

The analysis below is static: given the participant set of a transaction
and the reliability facts about peers (super-peer status, replication),
decide whether atomicity is *guaranteed* — i.e., whether compensation
can always run to completion no matter which ordinary peers disconnect.

A participant is **safe** when

* it is a super peer (never disconnects), or
* every document it modified under the transaction is replicated on at
  least one super peer *and* peer-independent compensation is in use
  (so another peer holds the compensating definitions and can execute
  them against the replica).

Atomicity is guaranteed exactly when every participant that performed
modifications is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set


@dataclass
class SphereAnalysis:
    """Result of a sphere-of-atomicity check for one transaction."""

    guaranteed: bool
    participants: FrozenSet[str]
    at_risk_peers: FrozenSet[str]
    reasons: Dict[str, str] = field(default_factory=dict)

    def explain(self) -> str:
        if self.guaranteed:
            return "atomicity guaranteed: every modifying participant is safe"
        lines = ["atomicity NOT guaranteed:"]
        for peer in sorted(self.at_risk_peers):
            lines.append(f"  {peer}: {self.reasons.get(peer, 'unsafe')}")
        return "\n".join(lines)


def analyze_sphere(
    participants: Iterable[str],
    super_peers: Iterable[str],
    modifying_peers: Iterable[str] = (),
    replicas_on_super_peers: Mapping[str, bool] = None,
    peer_independent: bool = False,
) -> SphereAnalysis:
    """Check whether a transaction's atomicity is guaranteed.

    ``participants`` — every peer involved in the transaction;
    ``super_peers`` — the trusted peers that never disconnect;
    ``modifying_peers`` — participants that performed modifications
    (defaults to all participants — the conservative assumption);
    ``replicas_on_super_peers`` — per-peer: are all its modified
    documents replicated on some super peer?
    ``peer_independent`` — is peer-independent compensation in use?
    """
    participant_set = frozenset(participants)
    super_set = set(super_peers)
    modifying = set(modifying_peers) or set(participant_set)
    replicas = dict(replicas_on_super_peers or {})

    at_risk: Set[str] = set()
    reasons: Dict[str, str] = {}
    for peer in modifying:
        if peer in super_set:
            continue
        if peer_independent and replicas.get(peer, False):
            # Another peer holds the compensating definitions and a super
            # peer holds a replica to run them against.
            continue
        at_risk.add(peer)
        if not peer_independent and replicas.get(peer, False):
            reasons[peer] = (
                "replicated on a super peer, but compensation is "
                "peer-dependent: only this peer can compensate"
            )
        elif peer_independent:
            reasons[peer] = (
                "ordinary peer without a super-peer replica: disconnection "
                "strands its modifications"
            )
        else:
            reasons[peer] = (
                "ordinary peer: its disconnection makes compensation of its "
                "modifications impossible"
            )
    return SphereAnalysis(
        guaranteed=not at_risk,
        participants=participant_set,  # hash-ok: a set field, read by membership
        at_risk_peers=frozenset(at_risk),  # hash-ok: a set field, read by membership
        reasons=reasons,
    )


def sphere_guarantee_rate(
    transactions: Sequence[Sequence[str]],
    super_peers: Iterable[str],
    peer_independent: bool = False,
    replicas_on_super_peers: Mapping[str, bool] = None,
) -> float:
    """Fraction of transactions with guaranteed atomicity (experiment E6)."""
    if not transactions:
        return 1.0
    guaranteed = 0
    for participants in transactions:
        analysis = analyze_sphere(
            participants,
            super_peers,
            peer_independent=peer_independent,
            replicas_on_super_peers=replicas_on_super_peers,
        )
        if analysis.guaranteed:
            guaranteed += 1
    return guaranteed / len(transactions)
