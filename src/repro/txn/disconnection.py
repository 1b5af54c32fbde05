"""Drivers for the §3.3 disconnection cases.

The mechanics of the chaining protocol live on the peer
(:class:`repro.p2p.peer.AXMLPeer`): result redirection past a dead
parent, descendant notification, sibling timeout reporting, reuse of
redirected results.  This module packages the paper's four cases as
runnable scenario steps so tests, examples and benchmarks exercise them
uniformly, and reports what happened in each.

Case map (Fig. 2 topology, ``[AP1* -> AP2 -> [AP3 -> AP6] || [AP4 -> AP5]]``):

(a) leaf disconnection, detected by the parent — an invocation of the
    leaf fails; nested recovery (§3.2) handles it (retry/replica or
    abort).
(b) parent disconnection, detected by the child returning results — the
    child redirects results up the chain; the grandparent reuses them.
(c) child disconnection, detected by the parent via ping — the parent
    informs the orphaned descendants, preventing wasted effort.
(d) sibling disconnection, detected by a sibling via stream silence —
    the sibling notifies the dead peer's parent and children.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import PeerDisconnected, ServiceFault
from repro.p2p.peer import AXMLPeer


@dataclass
class CaseReport:
    """What a disconnection case produced, for assertions and tables."""

    case: str
    disconnected_peer: str
    detected_by: str
    #: None until a detection event for the peer exists.
    detection_latency: Optional[float] = None
    work_reused: int = 0
    work_discarded: int = 0
    descendants_informed: int = 0
    recovered: bool = False
    metrics: Dict[str, int] = field(default_factory=dict)


def _snapshot_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    keys = set(before) | set(after)
    return {k: after.get(k, 0) - before.get(k, 0) for k in keys if after.get(k, 0) != before.get(k, 0)}


def run_case_a_leaf_disconnection(
    parent: AXMLPeer,
    txn_id: str,
    leaf_peer: str,
    method_name: str,
    params: Optional[Dict[str, str]] = None,
) -> CaseReport:
    """(a) The leaf is already disconnected; the parent invokes it and
    runs nested recovery on the failure."""
    network = parent.network
    before = network.metrics.snapshot()
    report = CaseReport("a", leaf_peer, parent.peer_id)
    try:
        parent.invoke(txn_id, leaf_peer, method_name, params or {})
        report.recovered = True  # forward recovery succeeded
    except (PeerDisconnected, ServiceFault):
        report.recovered = False  # backward recovery ran
    report.detection_latency = network.metrics.detection_latency(leaf_peer)
    report.metrics = _snapshot_delta(before, network.metrics.snapshot())
    report.work_discarded = report.metrics.get("invocations_discarded", 0)
    return report


def run_case_b_parent_disconnection(
    grandparent: AXMLPeer,
    txn_id: str,
    dead_parent: str,
    replacement_peer: str,
    method_name: str,
    params: Optional[Dict[str, str]] = None,
) -> CaseReport:
    """(b) After the parent died mid-invocation (results were redirected
    to *grandparent* by the network's return-failure path), the
    grandparent forward-recovers by re-invoking on *replacement_peer*,
    passing along any reusable redirected results."""
    network = grandparent.network
    before = network.metrics.snapshot()
    report = CaseReport("b", dead_parent, grandparent.peer_id)
    reused = grandparent.take_redirected(txn_id)
    for _ in reused:
        network.metrics.record_reused_invocation()
    try:
        grandparent.invoke(
            txn_id,
            replacement_peer,
            method_name,
            params or {},
            reused_fragments=reused,
        )
        report.recovered = True
    except (PeerDisconnected, ServiceFault):
        report.recovered = False
    report.detection_latency = network.metrics.detection_latency(dead_parent)
    report.metrics = _snapshot_delta(before, network.metrics.snapshot())
    report.work_reused = len(reused) + report.metrics.get("invocations_reused", 0)
    report.work_discarded = report.metrics.get("invocations_discarded", 0)
    return report


def run_case_c_child_disconnection(
    parent: AXMLPeer, txn_id: str
) -> CaseReport:
    """(c) The parent pings its chain children; on a detected death it
    informs the orphaned descendants (saving their remaining effort)."""
    network = parent.network
    before = network.metrics.snapshot()
    dead = parent.check_child_liveness(txn_id)
    report = CaseReport(
        "c",
        dead[0] if dead else "",
        parent.peer_id,
    )
    if dead:
        report.detection_latency = network.metrics.detection_latency(dead[0])
    report.metrics = _snapshot_delta(before, network.metrics.snapshot())
    report.descendants_informed = report.metrics.get("descendants_informed", 0)
    report.recovered = bool(dead)
    return report


def run_case_d_sibling_disconnection(
    sibling: AXMLPeer, txn_id: str, silent_sibling: str
) -> CaseReport:
    """(d) A sibling notices the silence of another sibling's data stream
    and notifies that peer's parent and children through the chain."""
    network = sibling.network
    before = network.metrics.snapshot()
    sibling.report_stream_timeout(txn_id, silent_sibling)
    report = CaseReport("d", silent_sibling, sibling.peer_id)
    report.detection_latency = network.metrics.detection_latency(silent_sibling)
    report.metrics = _snapshot_delta(before, network.metrics.snapshot())
    report.descendants_informed = report.metrics.get(
        "disconnect_notices_received", 0
    )
    report.recovered = report.descendants_informed > 0
    return report
