"""The §3.2/§3.3 decisions, without a cluster — and the lifecycle of the
transaction context that holds their state on a peer.

* who receives redirected results / a disconnect notice: pure
  :class:`~repro.p2p.chain.PeerChain` methods on the Fig. 2 chain;
* peer-independent compensation dispatch: one function over fake
  callables;
* undoing one invocation frame tells its children in invocation
  order, whatever ``PYTHONHASHSEED`` is;
* whatever happened to a transaction on a peer, ``manager.forget`` and
  ``crash`` release all of it, and traffic for a transaction the peer
  holds no share of leaves nothing behind.
"""

import re

from hypothesis import given, settings, strategies as st

from repro.axml.document import AXMLDocument
from repro.p2p.chain import PeerChain
from repro.p2p.messages import AbortMessage, DisconnectNotice, InvokeRequest, RedirectedResult
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import UpdateService
from repro.txn.compensation import CompensationPlan
from repro.txn.peer_independent import dispatch_compensations
from repro.txn.transaction import Transaction, TransactionState

FIG2 = "[AP1* -> AP2 -> [AP3 -> AP6] || [AP4 -> AP5]]"


class TestRedirectTargets:
    """§3.3(b): the child of a dead parent pushes its results up."""

    def test_nearest_ancestor_first(self):
        chain = PeerChain.from_text(FIG2)
        # AP6 lost AP3: "send the results directly to AP2", else AP1*.
        assert chain.ancestors_of("AP3") == ["AP2", "AP1"]
        assert chain.ancestors_of("AP2") == ["AP1"]

    def test_the_closest_super_peer_is_among_them(self):
        chain = PeerChain.from_text("[R -> S* -> A -> B -> C]")
        assert chain.ancestors_of("C") == ["B", "A", "S", "R"]
        supers = [p for p in chain.ancestors_of("C") if f"{p}*" in chain.to_text()]
        assert supers[:1] == ["S"]  # the closest one comes first

    def test_root_and_strangers_have_nobody(self):
        chain = PeerChain.from_text(FIG2)
        assert chain.ancestors_of("AP1") == []
        assert chain.ancestors_of("APX") == []


class TestDisconnectNoticeTargets:
    def test_parent_informs_orphaned_descendants(self):
        """§3.3(c): AP2 detected AP3's death — AP6 must hear of it."""
        chain = PeerChain.from_text(FIG2)
        assert chain.orphan_notice_targets("AP3", "AP2") == ["AP6"]
        assert chain.orphan_notice_targets("AP2", "AP1") == [
            "AP3", "AP6", "AP4", "AP5",
        ]
        assert chain.orphan_notice_targets("AP5", "AP4") == []

    def test_extended_scope_adds_the_family_but_not_the_informer(self):
        chain = PeerChain.from_text(FIG2)
        assert chain.orphan_notice_targets("AP3", "AP2", "extended") == [
            "AP6", "AP4", "AP1",
        ]
        assert chain.orphan_notice_targets("AP4", "AP2", "extended") == [
            "AP5", "AP3", "AP1",
        ]

    def test_sibling_informs_parent_and_children(self):
        """§3.3(d): AP4 noticed AP3's stream went silent."""
        chain = PeerChain.from_text(FIG2)
        assert chain.sibling_notice_targets("AP3", "AP4", "immediate") == ["AP2", "AP6"]
        assert chain.sibling_notice_targets("AP3", "AP4", "extended") == [
            "AP2", "AP6", "AP1",
        ]

    def test_cousins_hear_of_it_under_extended_scope(self):
        chain = PeerChain.from_text("[R -> [A -> [A1] || [A2]] || [B -> B1]]")
        assert chain.sibling_notice_targets("A1", "A2", "immediate") == ["A"]
        assert chain.sibling_notice_targets("A1", "A2", "extended") == [
            "A", "R", "B", "B1",
        ]


class _FakeNetwork:
    """Records what the dispatch sends, delivers to the *alive* peers."""

    def __init__(self, alive, holders):
        self.alive = set(alive)
        self.holders = holders
        self.sent = []
        self.counters = {}

    def send(self, peer_id, plan_xml):
        self.sent.append((peer_id, CompensationPlan.from_xml(plan_xml).document_name))
        return peer_id in self.alive

    def count(self, name):
        self.counters[name] = self.counters.get(name, 0) + 1

    def dispatch(self, definitions):
        return dispatch_compensations(
            definitions,
            send=self.send,
            replica_holders=self.holders.__getitem__,
            count=self.count,
        )


def _plan(document):
    return CompensationPlan(document).to_xml()


class TestPeerIndependentDispatch:
    """§3.2: compensating definitions go to their providers, newest first."""

    def test_alive_providers_get_their_definitions_newest_first(self):
        net = _FakeNetwork(alive={"P1", "P2"}, holders={})
        assert net.dispatch([("P1", _plan("D1")), ("P2", _plan("D2"))])
        assert net.sent == [("P2", "D2"), ("P1", "D1")]
        assert net.counters == {}

    def test_dead_provider_falls_back_to_the_first_live_replica(self):
        net = _FakeNetwork(alive={"R2", "R3"}, holders={"D1": ["P1", "R1", "R2", "R3"]})
        assert net.dispatch([("P1", _plan("D1"))])
        # the provider itself is not asked twice; R1 is dead; R2 takes it
        assert net.sent == [("P1", "D1"), ("R1", "D1"), ("R2", "D1")]
        assert net.counters == {"compensations_via_replica": 1}

    def test_dead_end_is_counted_and_reported(self):
        net = _FakeNetwork(alive={"P2"}, holders={"D1": ["P1", "R1"], "D2": ["P2"]})
        assert not net.dispatch([("P1", _plan("D1")), ("P2", _plan("D2"))])
        assert net.sent == [("P2", "D2"), ("P1", "D1"), ("R1", "D1")]
        assert net.counters == {"compensation_failures": 1}

    def test_unreplicated_document_is_a_dead_end(self):
        # What a network with nothing replicated answers: no holder, or
        # the provider itself, which is not asked twice.
        net = _FakeNetwork(alive=set(), holders={"D1": [], "D2": ["P2"]})
        assert not net.dispatch([("P1", _plan("D1")), ("P2", _plan("D2"))])
        assert net.sent == [("P2", "D2"), ("P1", "D1")]
        assert net.counters == {"compensation_failures": 2}


class TestPartialRecoveryFanOut:
    """§3.2 on a share of two frames: undoing one tells each of its
    children once, first invocation first — not in set order — and the
    Abort names exactly that frame's invocations."""

    def test_children_are_told_in_invocation_order(self):
        network = SimNetwork()
        peer = AXMLPeer("AP1", network)
        context = peer.manager.begin(
            Transaction("T1", "AP0"), parent_peer="AP0", service_name="S1"
        )
        kept = context.open_frame("AP0", 1, "S0")
        context.record_invocation("AP2", "S", 2)  # not the undone frame's
        context.open_frames.remove(kept)
        undone = context.open_frame("AP0", 3, "S1")
        invoked = ["AP7", "AP3", "AP9", "AP0", "AP3", "AP5", "AP8", "AP4", "AP7", "AP6"]
        for edge_id, target in enumerate(invoked, start=10):
            context.record_invocation(target, "S", edge_id)
        context.open_frames.remove(undone)
        told = []
        network.notify = lambda sender, target, message: told.append(
            (target, message.edge_ids)
        ) or True
        peer._backward_recover("T1", [undone], exclude_peer="AP0")
        # the invoker hears through the re-raised fault
        assert [target for target, _ in told] == [
            "AP7", "AP3", "AP9", "AP5", "AP8", "AP4", "AP6",
        ]
        assert {ids for _, ids in told} == {tuple(range(10, 20))}
        targets = [target for target, _ in told]
        assert targets not in (sorted(targets), sorted(targets, reverse=True))
        assert [e.target_peer for e in context.invocations] == ["AP2"]
        assert context.frames == [kept]


# -- context lifecycle ---------------------------------------------------

_COLLABORATORS = ("network", "manager", "wal", "registry", "documents")


def _mentions(obj, txn_id, seen):
    """Whether a string naming *txn_id* is reachable from *obj*."""
    if id(obj) in seen:
        return False
    seen.add(id(obj))
    if isinstance(obj, str):
        return re.search(rf"(?<![0-9A-Za-z]){re.escape(txn_id)}(?![0-9])", obj) is not None
    if isinstance(obj, dict):
        return any(
            _mentions(k, txn_id, seen) or _mentions(v, txn_id, seen)
            for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        return any(_mentions(item, txn_id, seen) for item in obj)
    if callable(obj) and hasattr(obj, "__defaults__"):
        cells = [c.cell_contents for c in (obj.__closure__ or ())]
        return _mentions([obj.__defaults__ or (), cells], txn_id, seen)
    if hasattr(obj, "__dict__"):
        return _mentions(vars(obj), txn_id, seen)
    return False


def _peer_mentions(peer, txn_id):
    state = {k: v for k, v in vars(peer).items() if k not in _COLLABORATORS}
    seen = {id(getattr(peer, name)) for name in _COLLABORATORS}
    return _mentions(state, txn_id, seen)


def _lifecycle_world():
    network = SimNetwork()
    peer = AXMLPeer("AP1", network, super_peer=True)
    provider = AXMLPeer("AP2", network)
    for owner, name in ((peer, "Shop"), (provider, "Shop2")):
        owner.host_document(AXMLDocument.from_xml(
            f"<{name}><item><price>1</price></item></{name}>", name=name
        ))
        owner.host_service(UpdateService(
            ServiceDescriptor(f"set{name}", params=("price",), target_document=name),
            '<action type="replace"><data><price>$price</price></data>'
            f"<location>Select i/price from i in {name}//item;</location></action>",
        ))
    return network, peer


#: (event kind, transaction slot): slots 0–1 are transactions the peer
#: begins itself (on first use), 2–3 reach it from a remote origin.
_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(["invoke", "serve", "redirected", "notice", "work"]),
        st.integers(0, 3),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(events=_EVENTS, forgotten=st.integers(0, 3))
def test_forget_and_crash_release_everything_a_transaction_left(events, forgotten):
    network, peer = _lifecycle_world()
    txn_ids = {}

    def txn_of(slot):
        if slot not in txn_ids:
            txn_ids[slot] = (
                peer.begin_transaction().txn_id if slot < 2 else f"T9{slot}0"
            )
        return txn_ids[slot]

    for kind, slot in events:
        txn_id = txn_of(slot)
        if kind == "invoke" and slot < 2:
            if peer.manager.live_context(txn_id) is not None:
                peer.invoke(txn_id, "AP2", "setShop2", {"price": "5"})
        elif kind == "serve":
            peer.handle_invoke(InvokeRequest(
                txn_id, "AP9", "AP9", "setShop", {"price": "7"},
                chain=PeerChain.from_text("[AP9 -> AP1*]"),
                reused_fragments={"m": ["<f/>"]},
            ))
        elif kind == "redirected":
            peer.on_notify(RedirectedResult(txn_id, "AP6", "AP3", "S6", ["<r/>"]))
        elif kind == "notice":
            peer.on_notify(DisconnectNotice(txn_id, "AP3", "AP2", 0.0))
        elif kind == "work":
            peer.add_pending_work(txn_id, units=2, unit_duration=0.01)

    target = txn_of(forgotten)
    peer.manager.forget(target)
    assert not _peer_mentions(peer, target)
    assert not _mentions(peer.manager.contexts, target, set())
    survivors = [t for t in txn_ids.values() if t != target]
    peer.crash()
    assert peer.manager.contexts == {}
    for txn_id in survivors:
        assert not _peer_mentions(peer, txn_id)
    # ... and nothing they scheduled still does work after the restart
    peer.rejoin()
    network.events.run_all()
    assert network.metrics.get("work_units_done") == 0


def test_late_traffic_for_a_forgotten_transaction_leaves_no_state():
    network, peer = _lifecycle_world()
    txn_id = peer.begin_transaction().txn_id
    peer.invoke(txn_id, "AP2", "setShop2", {"price": "5"})
    peer.commit(txn_id)
    peer.on_notify(DisconnectNotice(txn_id, "AP2", "AP3", 0.0))
    peer.on_notify(RedirectedResult(txn_id, "AP6", "AP2", "S6", ["<r/>"]))
    peer.add_pending_work(txn_id, units=2, unit_duration=0.01)
    assert not _peer_mentions(peer, txn_id)
    assert peer.manager.contexts == {}
    assert peer.manager.states() == {txn_id: TransactionState.COMMITTED}
    assert not peer.is_doomed(txn_id) and peer.take_redirected(txn_id) == {}
    network.events.run_all()
    assert network.metrics.get("work_units_done") == 0


def test_a_finished_share_invoked_again_keeps_its_recovery_state():
    network, peer = _lifecycle_world()
    txn_id = "T950"

    def serve(chain, edge_id):
        peer.handle_invoke(InvokeRequest(
            txn_id, "AP9", "AP9", "setShop", {"price": "7"}, chain=chain, edge_id=edge_id,
        ))

    serve(PeerChain.from_text("[AP9 -> AP1*]"), 1)
    context = peer.manager.context(txn_id)
    view = context.chain
    peer.on_notify(AbortMessage(txn_id, "AP9"))
    assert context.state is TransactionState.ABORTED
    peer.on_notify(RedirectedResult(txn_id, "AP6", "AP3", "S6", ["<r/>"]))
    peer.on_notify(DisconnectNotice(txn_id, "AP3", "AP9", 0.0))
    serve(None, 2)  # the parent's retry: a new attempt on the same share
    assert peer.manager.context(txn_id) is context
    assert context.state is TransactionState.ACTIVE
    assert [f.edge_id for f in context.frames] == [2]
    assert peer.chain_views() == {txn_id: view}
    assert peer.is_doomed(txn_id)
    assert peer.take_redirected(txn_id) == {"S6": ["<r/>"]}
