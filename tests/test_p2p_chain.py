"""Unit tests for active-peer chains (repro.p2p.chain)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import ChaosConfig, run_chaos, summary_text
from repro.cli import main
from repro.errors import P2PError, ServiceFault
from repro.p2p.chain import ChainNode, PeerChain
from tests.test_replication import make_cluster

#: The paper's §3.3 example chain.
PAPER_CHAIN = "[AP1* -> AP2 -> [AP3 -> AP6] || [AP4 -> AP5]]"


def paper_chain() -> PeerChain:
    chain = PeerChain("AP1", root_super=True)
    chain.add_invocation("AP1", "AP2")
    chain.add_invocation("AP2", "AP3")
    chain.add_invocation("AP2", "AP4")
    chain.add_invocation("AP3", "AP6")
    chain.add_invocation("AP4", "AP5")
    return chain


class TestConstruction:
    def test_paper_notation(self):
        assert paper_chain().to_text() == PAPER_CHAIN

    def test_single_chain_inline(self):
        chain = PeerChain("A")
        chain.add_invocation("A", "B")
        chain.add_invocation("B", "C")
        assert chain.to_text() == "[A -> B -> C]"

    def test_unknown_parent_rejected(self):
        with pytest.raises(P2PError):
            PeerChain("A").add_invocation("ghost", "B")

    def test_peers(self):
        assert paper_chain().peers() == ["AP1", "AP2", "AP3", "AP6", "AP4", "AP5"]


class TestNavigation:
    def test_parent_of(self):
        chain = paper_chain()
        assert chain.parent_of("AP6") == "AP3"
        assert chain.parent_of("AP2") == "AP1"
        assert chain.parent_of("AP1") is None
        assert chain.parent_of("ghost") is None

    def test_children_of(self):
        chain = paper_chain()
        assert chain.children_of("AP2") == ["AP3", "AP4"]
        assert chain.children_of("AP6") == []

    def test_siblings_of(self):
        chain = paper_chain()
        assert chain.siblings_of("AP3") == ["AP4"]
        assert chain.siblings_of("AP4") == ["AP3"]
        assert chain.siblings_of("AP1") == []

    def test_descendants_of(self):
        chain = paper_chain()
        assert set(chain.descendants_of("AP2")) == {"AP3", "AP6", "AP4", "AP5"}
        assert chain.descendants_of("AP3") == ["AP6"]

    def test_ancestors_nearest_first(self):
        chain = paper_chain()
        assert chain.ancestors_of("AP6") == ["AP3", "AP2", "AP1"]

    def test_closest_super_peer(self):
        chain = paper_chain()
        for peer, closest in (("AP6", ["AP1"]), ("AP2", ["AP1"]), ("AP1", [])):
            supers = [p for p in chain.ancestors_of(peer) if chain.find(p).super_peer]
            assert supers[:1] == closest

    def test_contains(self):
        chain = paper_chain()
        assert chain.contains("AP5")
        assert not chain.contains("APX")


class TestSerialization:
    def test_roundtrip(self):
        chain = paper_chain()
        restored = PeerChain.from_text(chain.to_text())
        assert restored.to_text() == chain.to_text()
        assert restored.parent_of("AP6") == "AP3"
        assert restored.find("AP1").super_peer

    def test_roundtrip_single(self):
        assert PeerChain.from_text("[A]").to_text() == "[A]"

    def test_super_flag_roundtrip(self):
        chain = PeerChain("A", root_super=True)
        chain.add_invocation("A", "B", child_super=True)
        restored = PeerChain.from_text(chain.to_text())
        assert restored.find("B").super_peer

    def test_copy_is_independent(self):
        chain = paper_chain()
        copy = chain.copy()
        copy.add_invocation("AP6", "AP9")
        assert not chain.contains("AP9")
        assert copy.contains("AP9")

    def test_structural_copy_pins_text_roundtrip(self):
        # copy() is a direct structural clone; this pins it to the
        # historical from_text/to_text route, node for node.
        chain = paper_chain()
        structural = chain.copy()
        roundtrip = PeerChain.from_text(chain.to_text())
        assert structural.to_text() == roundtrip.to_text() == chain.to_text()
        for node in structural.root.iter():
            twin = roundtrip.find(node.peer_id)
            assert twin is not None
            assert twin.super_peer == node.super_peer
            assert [c.peer_id for c in twin.children] == [
                c.peer_id for c in node.children
            ]
            parent = None if node.parent is None else node.parent.peer_id
            twin_parent = None if twin.parent is None else twin.parent.peer_id
            assert parent == twin_parent

    @pytest.mark.parametrize(
        "bad", ["", "A", "[A -> ]", "[A -> [B] ||]", "[]", "[A] trailing"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(P2PError):
            PeerChain.from_text(bad)

    def test_deep_parallel_roundtrip(self):
        chain = PeerChain("R")
        chain.add_invocation("R", "A")
        chain.add_invocation("R", "B")
        chain.add_invocation("A", "A1")
        chain.add_invocation("A", "A2")
        chain.add_invocation("B", "B1")
        restored = PeerChain.from_text(chain.to_text())
        assert restored.children_of("A") == ["A1", "A2"]
        assert restored.children_of("B") == ["B1"]


# -- the index against a reference walk ----------------------------------

LABELS = ("A", "B", "C", "D", "E")


def _ref_walk(node):
    """Pre-order, recursively — written independently of ChainNode.iter."""
    out = [node]
    for child in node.children:
        out.extend(_ref_walk(child))
    return out


def _ref_find(root, peer_id):
    return next((n for n in _ref_walk(root) if n.peer_id == peer_id), None)


def _ref_text(node):
    label = node.peer_id + ("*" if node.super_peer else "")
    if not node.children:
        return label
    if len(node.children) == 1:
        return f"{label} -> {_ref_text(node.children[0])}"
    return f"{label} -> " + " || ".join(f"[{_ref_text(c)}]" for c in node.children)


def _ref_clone(node, parent=None):
    twin = ChainNode(node.peer_id, node.super_peer, parent=parent)
    twin.children = [_ref_clone(c, twin) for c in node.children]
    return twin


def _ref_merge(root, other_root):
    """The breadth-first fold, walking the tree for every lookup."""
    added, queue = 0, [other_root]
    while queue:
        node = queue.pop(0)
        for child in node.children:
            queue.append(child)
            parent = _ref_find(root, node.peer_id)
            if parent is None or _ref_find(root, child.peer_id) is not None:
                continue
            parent.children.append(ChainNode(child.peer_id, child.super_peer, parent=parent))
            added += 1
    return added


def _ref_substitute(root, old, new, super_peer):
    node, existing = _ref_find(root, old), _ref_find(root, new)
    if node is None or old == new:
        return False
    if existing is None:
        node.peer_id, node.super_peer = new, super_peer
        return True
    if node.parent is None:
        return False  # the root is never spliced out
    for child in node.children:
        child.parent = existing
        existing.children.append(child)
    node.children = []
    node.parent.children = [c for c in node.parent.children if c is not node]
    node.parent = None
    return True


def _text_of(spec):
    """Chain text of a random tree: (parent pick, label, super) per node."""
    (root_label, root_super), rest = spec
    nodes = [ChainNode(root_label, root_super)]
    for pick, label, super_peer in rest:
        parent = nodes[pick % len(nodes)]
        parent.children.append(ChainNode(label, super_peer, parent=parent))
        nodes.append(parent.children[-1])
    return "[" + _ref_text(nodes[0]) + "]"


def _assert_matches_reference(chain):
    walk = _ref_walk(chain.root)
    assert chain.peers() == [n.peer_id for n in walk]
    assert chain.to_text() == "[" + _ref_text(chain.root) + "]"
    assert len(chain) == len({n.peer_id for n in walk})
    for peer_id in LABELS + ("ghost",):
        expected = _ref_find(chain.root, peer_id)
        assert chain.find(peer_id) is expected
        assert chain.contains(peer_id) == (expected is not None)
        parent = expected.parent if expected is not None else None
        assert chain.parent_of(peer_id) == (parent.peer_id if parent else None)


def _parent_positions(walk):
    position = {id(node): i for i, node in enumerate(walk)}
    return [position.get(id(node.parent)) for node in walk]


def _assert_same_nodes(left, right):
    """Node for node: labels, flags, and parent positions in pre-order."""
    left_walk, right_walk = _ref_walk(left.root), _ref_walk(right.root)
    assert [(n.peer_id, n.super_peer) for n in left_walk] == [
        (n.peer_id, n.super_peer) for n in right_walk
    ]
    assert _parent_positions(left_walk) == _parent_positions(right_walk)


_LABEL = st.sampled_from(LABELS)
_TREE = st.tuples(
    st.tuples(_LABEL, st.booleans()),
    st.lists(st.tuples(st.integers(0, 40), _LABEL, st.booleans()), max_size=7),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(LABELS + ("ghost",)), _LABEL, st.booleans()),
        st.tuples(st.just("merge"), _TREE),
        st.tuples(st.just("substitute"), _LABEL, _LABEL, st.booleans()),
        st.tuples(st.just("copy")),
        st.tuples(st.just("from_text"), _TREE),
    ),
    max_size=14,
)


class TestIndexDifferential:
    """``find``/``contains`` read an index; every mutation keeps it equal
    to "the first node a pre-order walk meets", repeated labels included."""

    @settings(max_examples=300, deadline=None)
    @given(start=_TREE, ops=_OPS)
    def test_lookups_equal_a_linear_walk(self, start, ops):
        chain = PeerChain.from_text(_text_of(start))
        _assert_matches_reference(chain)
        for op in ops:
            kind, args = op[0], op[1:]
            if kind == "add":
                parent = _ref_find(chain.root, args[0])
                if parent is None:
                    with pytest.raises(P2PError):
                        chain.add_invocation(*args)
                else:
                    assert chain.add_invocation(*args).parent is parent
            elif kind in ("merge", "substitute"):
                reference = _ref_clone(chain.root)
                if kind == "merge":
                    other = PeerChain.from_text(_text_of(args[0]))
                    assert chain.merge(other) == _ref_merge(reference, other.root)
                else:
                    expected = _ref_substitute(reference, *args)
                    assert chain.substitute(*args) is expected
                assert chain.to_text() == "[" + _ref_text(reference) + "]"
            elif kind == "copy":
                copy = chain.copy()
                _assert_same_nodes(copy, PeerChain.from_text(chain.to_text()))
                _assert_same_nodes(copy, chain)
                chain = copy
            else:
                chain = PeerChain.from_text(_text_of(args[0]))
            _assert_matches_reference(chain)


# -- the chain on the wire -------------------------------------------------


def _invoked_cluster():
    """AP1 invoked the replicated ``setPrice`` on AP2 under one transaction."""
    network, _, peers = make_cluster()
    txn_id = peers["AP1"].begin_transaction().txn_id
    peers["AP1"].invoke(txn_id, "AP2", "setPrice", {"price": "5"})
    return network, peers, txn_id


class TestChainOnTheWire:
    """An invocation carries a snapshot of the caller's view, the callee
    adopts it, and the result carries a snapshot back: neither side sees
    the other's later edits until the next hop."""

    def test_views_are_independent_after_return(self):
        _, peers, txn_id = _invoked_cluster()
        caller = peers["AP1"].chain_views()[txn_id]
        callee = peers["AP2"].chain_views()[txn_id]
        assert caller is not callee
        assert caller.to_text() == callee.to_text() == "[AP1 -> AP2]"
        callee.add_invocation("AP2", "AP7")
        peers["AP2"].reroute_chain(txn_id, "AP2", "AP9")
        assert caller.to_text() == "[AP1 -> AP2]"
        caller.add_invocation("AP1", "AP5")
        peers["AP1"].reroute_chain(txn_id, "AP2", "AP3")
        assert caller.to_text() == "[AP1 -> [AP3] || [AP5]]"
        assert callee.to_text() == "[AP1 -> AP9 -> AP7]"

    def test_a_faulting_callee_does_not_share_the_callers_view(self):
        _, _, peers = make_cluster()
        txn_id = peers["AP1"].begin_transaction().txn_id
        with pytest.raises(ServiceFault):
            peers["AP1"].invoke(txn_id, "AP2", "noSuchMethod", {})
        caller = peers["AP1"].chain_views()[txn_id]
        peers["AP2"].chain_views()[txn_id].add_invocation("AP2", "AP7")
        assert caller.to_text() == "[AP1 -> AP2]"

    def test_a_deduplicated_replay_returns_the_first_completions_chain(self):
        network, peers, txn_id = _invoked_cluster()
        results = []
        rpc = network.rpc
        network.rpc = lambda *args: results.append(rpc(*args)) or results[-1]
        # Both views grow after the first completion ...
        peers["AP2"].chain_views()[txn_id].add_invocation("AP2", "AP7")
        peers["AP1"].chain_views()[txn_id].add_invocation("AP1", "AP5")
        # ... and a re-delegation (a failed-over parent's) is answered
        # from the exactly-once cache, with the view as it was then.
        peers["AP1"].invoke(txn_id, "AP2", "setPrice", {"price": "5"})
        assert network.metrics.get("invocations_deduped") == 1
        (replay,) = results
        assert replay.chain.to_text() == "[AP1 -> AP2]"


class TestNoChainTextOnTheWire:
    """With the bracket text unavailable, the §3.3 protocol and a chaos
    run behave exactly as with it: the text is for the edges only."""

    def test_fig2_and_chaos_runs_never_render_or_parse_chain_text(
        self, monkeypatch, capsys
    ):
        configs = (
            ChaosConfig(seed=3, txns=40, fault_rate=0.2, handlers=True),
            ChaosConfig(
                seed=1, txns=40, fault_rate=0.2, durability=True, crash_rate=0.3,
                replicas=2, handlers=True,
            ),
        )

        def run():
            printed = []
            for case in ("b", "c", "d"):
                assert main(["fig2", "--case", case]) == 0
                printed.append(capsys.readouterr().out)
            return printed, [summary_text(run_chaos(c)) for c in configs]

        expected = run()

        def refuse(*args):
            raise AssertionError("chain text used on the wire")

        monkeypatch.setattr(PeerChain, "to_text", refuse)
        monkeypatch.setattr(PeerChain, "from_text", classmethod(refuse))
        assert run() == expected
