"""Fault handlers for embedded service calls (§3.2).

The paper attaches BPEL4WS-style handlers to ``axml:sc`` elements::

    <axml:catch faultName="A" faultVariable="…">…</axml:catch>
    <axml:catch faultName="B" faultVariable="…">…</axml:catch>
    <axml:catchAll>…</axml:catchAll>

The handler body is "either some Java code or constructs like
``<axml:retry times="" wait=""><axml:sc …/></axml:retry>``".
:func:`parse_fault_handlers` reads them straight into the caller-side
:class:`~repro.txn.recovery.FaultPolicy` list that nested recovery
(:mod:`repro.txn.recovery`) consults to decide forward vs backward
recovery at each peer.
"""

from __future__ import annotations

from typing import List

from repro.errors import ServiceCallError
from repro.txn.recovery import FaultPolicy
from repro.xmlstore.names import CATCH_NAME, CATCHALL_NAME, RETRY_NAME, SC_NAME
from repro.xmlstore.nodes import Element


def parse_fault_handlers(sc_element: Element) -> List[FaultPolicy]:
    """The fault policies declared on an ``axml:sc`` element, in
    document order (:func:`~repro.txn.recovery.select_policy` applies
    §3.2's matching: first specific catch, then catchAll).

    The handler body decides the policy:

    * ``<axml:retry times=".." wait="..">`` — retry that often, waiting
      that many simulated seconds between attempts; an embedded
      ``<axml:sc serviceURL="axml://P">`` retries against the replicated
      peer ``P`` (§3.2: "The optional <axml:sc …> allows retrying the
      invocation using a replicated peer");
    * a ``hook="…"`` attribute (the "Java code" case) — a policy that
      handles nothing: no application code is registered anywhere, so
      the fault propagates (backward recovery);
    * otherwise absorb: the fault is considered handled.
    """
    policies: List[FaultPolicy] = []
    for child in sc_element.child_elements():
        if child.name == CATCH_NAME:
            if not child.attributes.get("faultName"):
                raise ServiceCallError("axml:catch is missing faultName")
            policy = FaultPolicy(fault_names={child.attributes["faultName"]})
        elif child.name == CATCHALL_NAME:
            policy = FaultPolicy(fault_names=None)
        else:
            continue
        retry = child.first_child(RETRY_NAME)
        if retry is None:
            policy.absorb = "hook" not in child.attributes
        else:
            policy.retry_times = int(retry.attributes.get("times", "1"))
            policy.retry_wait = float(retry.attributes.get("wait", "0"))
            replica = retry.first_child(SC_NAME)
            url = "" if replica is None else replica.attributes.get("serviceURL", "")
            if url.startswith("axml://"):
                policy.alternative_peer = url[len("axml://"):]
        policies.append(policy)
    return policies
