"""Invocation frames are the unit of undo (§3.2: "undo only as much as
required").

A peer's share of a transaction is the frames it executed for incoming
invocations.  An "Abort T" names the invocations it undoes, and a peer
it reaches undoes only the frames it ran for them — never another
invocation's work that happens to sit in the same share.
"""

import re

from repro.axml.document import AXMLDocument
from repro.p2p.messages import AbortMessage
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import DelegatingService
from repro.txn.recovery import FaultPolicy
from repro.txn.transaction import TransactionState

MARK = (
    '<action type="insert"><data><m step="$step"/></data>'
    "<location>Select d from d in {doc};</location></action>"
)


def marker_peer(network, peer_id, delegations=(), **kwargs):
    """*peer_id* hosting ``D<peer_id>`` and ``S<peer_id>``, which inserts
    one ``<m step=…/>`` marker and then invokes ``S<p>`` on each
    delegation ``p`` in order."""
    peer = AXMLPeer(peer_id, network, **kwargs)
    doc = f"D{peer_id}"
    peer.host_document(AXMLDocument.from_xml(f"<{doc}/>", name=doc))
    peer.host_service(DelegatingService(
        ServiceDescriptor(f"S{peer_id}", params=("step",), target_document=doc),
        [(target, f"S{target}") for target in delegations],
        local_action_template=MARK.format(doc=doc),
    ))
    return peer


def steps(peer):
    """The step of every marker in *peer*'s document, in document order."""
    return re.findall(r'step="(\w+)"', peer.get_axml_document(f"D{peer.peer_id}").to_xml())


def retried_cluster(first_step_target):
    """O invokes *first_step_target* for step s0, then A for step s1:
    A → Q → P, and A faults once after executing, so O's retry handler
    redoes s1 after A's "Abort T" cascade went down through Q to P.
    The transaction is left for the caller to commit."""
    network = SimNetwork()
    origin = AXMLPeer("O", network)
    peers = {
        "P": marker_peer(network, "P"),
        "Q": marker_peer(network, "Q", ["P"]),
        "A": marker_peer(network, "A", ["Q"]),
    }
    network.injector.fault_service("A", "SA", "Boom", point="after_execute")
    origin.set_fault_policy("SA", [FaultPolicy(fault_names={"Boom"}, retry_times=1)])
    txn = origin.begin_transaction()
    origin.invoke(txn.txn_id, first_step_target, f"S{first_step_target}", {"step": "s0"})
    origin.invoke(txn.txn_id, "A", "SA", {"step": "s1"})
    return network, origin, peers, txn.txn_id


class TestAbortUndoesOnlyTheNamedFrames:
    def test_a_direct_invocation_survives_a_later_steps_cascade(self):
        """The seed-13 shape: the origin reached P directly for s0."""
        network, origin, peers, txn_id = retried_cluster("P")
        origin.commit(txn_id)
        assert steps(peers["P"]) == ["s0", "s1"]
        assert steps(peers["Q"]) == ["s1"] and steps(peers["A"]) == ["s1"]
        assert network.metrics.get("partial_aborts") == 1

    def test_the_same_invoker_in_two_steps_keeps_the_other_step(self):
        """The seed-11 shape: Q invokes P in s0 and again in s1, so both
        of P's frames have the same invoker; the Abort names one."""
        network, origin, peers, txn_id = retried_cluster("Q")
        frames = peers["P"].manager.context(txn_id).frames
        assert [f.invoker for f in frames] == ["Q", "Q"]
        origin.commit(txn_id)
        assert steps(peers["Q"]) == ["s0", "s1"]
        assert steps(peers["P"]) == ["s0", "s1"]

    def test_an_abort_naming_one_of_two_frames(self):
        network = SimNetwork()
        origin = AXMLPeer("O", network)
        peer = marker_peer(network, "P")
        txn = origin.begin_transaction()
        for step in ("s0", "s1"):
            origin.invoke(txn.txn_id, "P", "SP", {"step": step})
        context = peer.manager.context(txn.txn_id)
        first, second = context.frames
        peer.on_notify(AbortMessage(txn.txn_id, "O", edge_ids=(second.edge_id,)))
        assert steps(peer) == ["s0"] and context.frames == [first]
        assert context.state is TransactionState.ACTIVE
        # naming it again finds nothing; naming none undoes the rest
        peer.on_notify(AbortMessage(txn.txn_id, "O", edge_ids=(second.edge_id,)))
        assert steps(peer) == ["s0"]
        peer.on_notify(AbortMessage(txn.txn_id, "O"))
        assert steps(peer) == [] and context.state is TransactionState.ABORTED


class TestOrphanWatchUndoesTheDeadInvokersFrames:
    def test_only_the_dead_invokers_frame_is_undone(self):
        network = SimNetwork()
        origin = AXMLPeer("O", network)
        peer = marker_peer(network, "P", parent_watch_interval=0.05)
        marker_peer(network, "Q", ["P"])
        txn = origin.begin_transaction()
        origin.invoke(txn.txn_id, "P", "SP", {"step": "s0"})
        origin.invoke(txn.txn_id, "Q", "SQ", {"step": "s1"})
        assert steps(peer) == ["s0", "s1"]
        network.disconnect("Q")
        network.events.run_until(network.clock.now + 1.0)
        context = peer.manager.context(txn.txn_id)
        assert steps(peer) == ["s0"] and [f.invoker for f in context.frames] == ["O"]
        assert context.state is TransactionState.ACTIVE
        assert network.metrics.get("orphan_self_aborts") == 1
