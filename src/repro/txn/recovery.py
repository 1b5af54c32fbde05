"""The nested recovery protocol (§3.2) — caller-side decisions.

When an invocation fails (a named service fault, or the callee's
disconnection), the invoking peer stands at the paper's fork:

* **forward recovery** — handle the fault with the application-specific
  handlers defined for the embedded service call: retry (possibly on a
  replicated peer), absorb, or run an application hook.  The paper
  prefers forward recovery: "undo only as much as required".
* **backward recovery** — no matching handler: abort the local context,
  send "Abort T" to the peers whose services this peer invoked, and
  propagate the failure to the parent.

This module implements the decision and the forward attempts; the
backward propagation is driven by :class:`repro.p2p.peer.AXMLPeer`,
which owns the network edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import PeerDisconnected, ReproError, ServiceFault

#: The synthetic fault name under which a callee's disconnection is
#: matched against handlers (so a policy can say "on disconnection,
#: retry on the replica").
DISCONNECT_FAULT = "PeerDisconnected"


@dataclass
class FaultPolicy:
    """A caller-side fault policy for one remote method.

    The in-memory form of the ``axml:catch``/``axml:retry`` handlers
    attached to an embedded service call
    (:func:`repro.axml.faults.parse_fault_handlers` reads them into
    it).  ``fault_names=None`` is catchAll.
    """

    fault_names: Optional[Set[str]] = None
    retry_times: int = 0
    retry_wait: float = 0.0
    #: Retry against this replicated peer instead of the original (§3.2:
    #: "retrying the invocation using a replicated peer").
    alternative_peer: str = ""
    #: Swallow the fault and continue with no results.
    absorb: bool = False
    #: Application hook: params → result fragments (or None = unhandled).
    hook: Optional[Callable[[Dict[str, str]], Optional[List[str]]]] = None

    def matches(self, fault_name: str) -> bool:
        return self.fault_names is None or fault_name in self.fault_names


@dataclass
class RecoveryDecision:
    """Outcome of the caller-side recovery attempt."""

    handled: bool
    fragments: List[str] = field(default_factory=list)
    retries_used: int = 0
    used_alternative: bool = False
    #: Which replica actually served the retry (empty when the original
    #: target did, or when the attempt was absorbed/hooked).
    alternative_used: str = ""

    @classmethod
    def unhandled(cls) -> "RecoveryDecision":
        return cls(handled=False)


#: Signature of the re-invocation callable the peer supplies:
#: (target_peer, method, params) → fragments; raises on failure.
Reinvoker = Callable[[str, str, Dict[str, str]], List[str]]


def fault_name_of(exc: ReproError) -> str:
    """The handler-matchable name of a failure."""
    if isinstance(exc, ServiceFault):
        return exc.fault_name
    if isinstance(exc, PeerDisconnected):
        return DISCONNECT_FAULT
    return type(exc).__name__


def select_policy(
    policies: Sequence[FaultPolicy], fault_name: str
) -> Optional[FaultPolicy]:
    """First specific match wins; catchAll policies match last (§3.2's
    catch-then-catchAll order)."""
    for policy in policies:
        if policy.fault_names is not None and policy.matches(fault_name):
            return policy
    for policy in policies:
        if policy.fault_names is None:
            return policy
    return None


def attempt_forward_recovery(
    policy: FaultPolicy,
    target_peer: str,
    method_name: str,
    params: Dict[str, str],
    reinvoke: Reinvoker,
    wait: Callable[[float], None],
    original_target_alive: Callable[[], bool],
    select_alternative: Optional[Callable[[], Optional[str]]] = None,
) -> RecoveryDecision:
    """Run one policy's forward-recovery attempt.

    Retries go to the original peer while it is alive, then (or when the
    policy names one) to the alternative replica peer.  A policy's
    explicit ``alternative_peer`` wins; otherwise *select_alternative*
    (when given) is consulted **per retry** — it is how the replication
    layer offers "the most-caught-up live replica right now", so a
    second retry after the first replica also died can land on a third
    peer (double failover).  The selector is only called when the retry
    would actually go to a replica, because selection promotes the
    chosen replica to primary.  Exhausted retries and failed hooks
    return ``unhandled`` — the caller falls back to backward recovery.
    """
    if policy.hook is not None:
        fragments = policy.hook(params)
        if fragments is not None:
            return RecoveryDecision(handled=True, fragments=list(fragments))
        return RecoveryDecision.unhandled()
    if policy.absorb:
        return RecoveryDecision(handled=True)
    retries = 0
    while retries < policy.retry_times:
        retries += 1
        alive = original_target_alive()
        alternative = ""
        if not alive or retries > 1:
            alternative = policy.alternative_peer
            if not alternative and select_alternative is not None:
                alternative = select_alternative() or ""
        use_alternative = bool(alternative)
        if not use_alternative and not alive:
            # Original is gone and no replica: no retry can succeed —
            # don't burn (simulated) wait time on doomed attempts.
            break
        if policy.retry_wait > 0:
            wait(policy.retry_wait)
        attempt_target = alternative if use_alternative else target_peer
        try:
            fragments = reinvoke(attempt_target, method_name, params)
            return RecoveryDecision(
                handled=True,
                fragments=fragments,
                retries_used=retries,
                used_alternative=use_alternative,
                alternative_used=attempt_target if use_alternative else "",
            )
        except (ServiceFault, PeerDisconnected):
            continue
    return RecoveryDecision.unhandled()
