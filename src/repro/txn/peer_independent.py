"""Peer-independent compensation (§3.2): the dispatch decision.

"Let us assume that a peer APY, processing the invocation of a service
S, also returns the definition of the compensating service CS_SY of S
along with the invocation results. … Given this, a peer trying to
perform recovery (say, the origin peer APX) can directly invoke the
compensating services (CS_SY) on their original peers (APY).  The
original peers do not even need to be aware that the services they are
executing are, basically, compensating services.  The intuition is to
free the original peers from the burden of compensation as much as
possible."

Like :func:`repro.txn.recovery.attempt_forward_recovery`, the decision
is a pure function over narrow callables: the recovering peer
(:meth:`repro.p2p.peer.AXMLPeer.abort`) stays the only thing that sends
messages, and the order/fallback rule is testable without a cluster.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from repro.txn.compensation import CompensationPlan


def dispatch_compensations(
    definitions: Sequence[Tuple[str, str]],
    send: Callable[[str, str], bool],
    replica_holders: Callable[[str], Sequence[str]],
    count: Callable[[str], None],
) -> bool:
    """Invoke every compensating definition on its provider, newest first.

    Newest first is §3.1's rule (reverse order of the forward
    operations).  *definitions* are ``(provider_peer, plan_xml)`` in forward receipt
    order; ``send(peer_id, plan_xml)`` delivers one compensation request
    and answers whether it arrived.  When the provider is gone and
    *replica_holders* (document name → holders, primary first) knows
    another holder of the plan's document, the first one that takes
    the request stands in (``compensations_via_replica``).  A definition
    nobody took is a ``compensation_failures`` dead end — the atomicity
    gap the spheres analysis predicts.  Returns True when every
    definition was delivered.
    """
    complete = True
    for provider, plan_xml in reversed(definitions):
        if send(provider, plan_xml):
            continue
        if any(
            holder != provider and send(holder, plan_xml)
            for holder in replica_holders(
                CompensationPlan.from_xml(plan_xml).document_name
            )
        ):
            count("compensations_via_replica")
            continue
        count("compensation_failures")
        complete = False
    return complete
