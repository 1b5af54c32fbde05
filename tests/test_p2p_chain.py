"""Unit tests for active-peer chains (repro.p2p.chain)."""

import gc
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import ChaosConfig, run_chaos, summary_text
from repro.cli import main
from repro.errors import P2PError, ServiceFault
from repro.p2p.chain import PeerChain
from tests.test_replication import make_cluster

#: The paper's §3.3 example chain.
PAPER_CHAIN = "[AP1* -> AP2 -> [AP3 -> AP6] || [AP4 -> AP5]]"


def paper_chain() -> PeerChain:
    chain = PeerChain("AP1", root_super=True)
    chain.add_invocation("AP1", "AP2", False)
    chain.add_invocation("AP2", "AP3", False)
    chain.add_invocation("AP2", "AP4", False)
    chain.add_invocation("AP3", "AP6", False)
    chain.add_invocation("AP4", "AP5", False)
    return chain


def super_peers(chain: PeerChain) -> set:
    """The peers the bracket text marks with the paper's ``*``."""
    return set(re.findall(r"([\w.-]+)\*", chain.to_text()))


class TestConstruction:
    def test_paper_notation(self):
        assert paper_chain().to_text() == PAPER_CHAIN

    def test_single_chain_inline(self):
        chain = PeerChain("A")
        chain.add_invocation("A", "B", False)
        chain.add_invocation("B", "C", False)
        assert chain.to_text() == "[A -> B -> C]"

    def test_unknown_parent_rejected(self):
        with pytest.raises(P2PError):
            PeerChain("A").add_invocation("ghost", "B", False)

    def test_peers(self):
        assert paper_chain().peers() == ["AP1", "AP2", "AP3", "AP6", "AP4", "AP5"]


class TestOneEntryPerPeer:
    """The protocol never repeats a peer (``invoke`` asks ``contains``,
    ``merge`` skips known ids), so a repeat is refused, not recorded."""

    @pytest.mark.parametrize("parent, child", [("AP6", "AP2"), ("AP1", "AP1"), ("AP4", "AP3")])
    def test_add_invocation_of_a_present_peer_raises(self, parent, child):
        chain = paper_chain()
        with pytest.raises(P2PError, match="already in the chain"):
            chain.add_invocation(parent, child, False)
        assert chain.to_text() == PAPER_CHAIN

    @pytest.mark.parametrize(
        "text", ["[A -> A]", "[A -> B -> A*]", "[A -> [B] || [B]]", "[R -> [A -> C] || [B -> C]]"]
    )
    def test_from_text_repeating_a_label_raises(self, text):
        with pytest.raises(P2PError, match="already in the chain"):
            PeerChain.from_text(text)


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
            supers = [p for p in chain.ancestors_of(peer) if p in super_peers(chain)]
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
        assert super_peers(restored) == {"AP1"}

    def test_roundtrip_single(self):
        assert PeerChain.from_text("[A]").to_text() == "[A]"

    def test_super_flag_roundtrip(self):
        chain = PeerChain("A", root_super=True)
        chain.add_invocation("A", "B", child_super=True)
        restored = PeerChain.from_text(chain.to_text())
        assert super_peers(restored) == {"A", "B"}

    def test_copy_is_independent(self):
        chain = paper_chain()
        copy = chain.copy()
        copy.add_invocation("AP6", "AP9", False)
        assert not chain.contains("AP9")
        assert copy.contains("AP9")
        chain.substitute("AP4", "AP8", True)
        assert copy.children_of("AP2") == ["AP3", "AP4"]
        assert chain.to_text() == "[AP1* -> AP2 -> [AP3 -> AP6] || [AP8* -> AP5]]"

    def test_structural_copy_pins_text_roundtrip(self):
        # copy() shares the maps' immutable values; this pins it to the
        # historical from_text/to_text route, through every public query.
        chain = paper_chain()
        chain.add_invocation("AP5", "AP7", True)
        structural = chain.copy()
        roundtrip = PeerChain.from_text(chain.to_text())
        assert structural.to_text() == roundtrip.to_text() == chain.to_text()
        assert _queries(structural) == _queries(roundtrip) == _queries(chain)

    @pytest.mark.parametrize(
        "bad", ["", "A", "[A -> ]", "[A -> [B] ||]", "[]", "[A] trailing"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(P2PError):
            PeerChain.from_text(bad)

    def test_deep_parallel_roundtrip(self):
        chain = PeerChain("R")
        chain.add_invocation("R", "A", False)
        chain.add_invocation("R", "B", False)
        chain.add_invocation("A", "A1", False)
        chain.add_invocation("A", "A2", False)
        chain.add_invocation("B", "B1", False)
        restored = PeerChain.from_text(chain.to_text())
        assert restored.children_of("A") == ["A1", "A2"]
        assert restored.children_of("B") == ["B1"]

    def test_a_3000_deep_chain_parses_and_prints_without_recursion(self):
        depth = 3000
        nested = "".join(f"[AP{i} -> " for i in range(depth)) + "X" + "]" * depth
        chain = PeerChain.from_text(nested)
        inline = "[" + "".join(f"AP{i} -> " for i in range(depth)) + "X]"
        assert chain.to_text() == inline
        assert PeerChain.from_text(inline).to_text() == inline
        assert len(chain) == depth + 1
        assert chain.ancestors_of("X")[-1] == "AP0"
        assert chain.descendants_of("AP0")[-1] == "X"
        forked = "[" + "".join(f"AP{i} -> [B{i}] || [" for i in range(depth)) + "X" + "]" * (depth + 1)
        chain = PeerChain.from_text(forked)
        assert len(chain) == 2 * depth + 1
        assert PeerChain.from_text(chain.to_text()).to_text() == chain.to_text()


class TestNoReferenceCycle:
    def test_a_chain_and_its_copies_are_freed_by_reference_counting(self):
        """A view holds no object that points back at its owner, so the
        snapshots every invocation carries never wait for the collector."""
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            chain = paper_chain()
            views = [chain.copy() for _ in range(10)]
            views[0].add_invocation("AP6", "AP9", True)
            chain.merge(views[0])
            views[1].substitute("AP3", "AP8", False)
            views[2].substitute("AP3", "AP4", False)
            views.append(PeerChain.from_text(chain.to_text()))
            del chain, views
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


# -- the chain against a naive reference tree ----------------------------

LABELS = ("A", "B", "C", "D", "E", "F")


def _queries(chain):
    """Everything the public queries say about every label."""
    answers = [chain.to_text(), chain.peers(), len(chain)]
    for peer in LABELS + ("ghost", "AP1", "AP5", "AP7"):
        answers.append((
            chain.contains(peer), chain.parent_of(peer), chain.children_of(peer),
            chain.siblings_of(peer), chain.descendants_of(peer), chain.ancestors_of(peer),
            chain.relatives_of(peer, "extended"),
        ))
    return answers


class _Ref:
    """The chain as nested ``[peer, super, children]`` lists, where the
    view is whatever a recursive walk from the root reaches and every
    lookup is a linear scan of that walk."""

    def __init__(self, peer, super_peer):
        self.root = [peer, super_peer, []]

    def walk(self, node=None):
        node = self.root if node is None else node
        out = [node]
        for child in node[2]:
            out.extend(self.walk(child))
        return out

    def find(self, peer):
        return next((n for n in self.walk() if n[0] == peer), None)

    def parent(self, peer):
        return next((n for n in self.walk() if any(c[0] == peer for c in n[2])), None)

    def add(self, parent, child, super_peer):
        node = self.find(parent)
        if node is None or self.find(child) is not None:
            raise P2PError("refused")
        node[2].append([child, super_peer, []])

    def text(self, node=None):
        node = self.root if node is None else node
        label = node[0] + ("*" if node[1] else "")
        if not node[2]:
            return label
        if len(node[2]) == 1:
            return f"{label} -> {self.text(node[2][0])}"
        return f"{label} -> " + " || ".join(f"[{self.text(c)}]" for c in node[2])

    def merge(self, other):
        added, queue = 0, [other.root]
        while queue:
            node = queue.pop(0)
            for child in node[2]:
                queue.append(child)
                if self.find(node[0]) is not None and self.find(child[0]) is None:
                    self.add(node[0], child[0], child[1])
                    added += 1
        return added

    def substitute(self, old, new, super_peer):
        """Pointer surgery as the node tree did it: a graft under a
        descendant leaves the dead subtree unreachable, so the walk
        drops it."""
        node, existing, parent = self.find(old), self.find(new), self.parent(old)
        if node is None or old == new:
            return False
        if existing is None:
            node[0], node[1] = new, super_peer
            return True
        if parent is None:
            return False  # the root is never spliced out
        existing[2].extend(node[2])
        parent[2] = [c for c in parent[2] if c is not node]
        return True

    def matches(self, chain):
        walk = self.walk()
        assert chain.peers() == [n[0] for n in walk]
        assert chain.to_text() == "[" + self.text() + "]"
        assert len(chain) == len(walk)
        for peer in LABELS + ("ghost",):
            node, parent = self.find(peer), self.parent(peer)
            assert chain.contains(peer) == (node is not None)
            assert chain.parent_of(peer) == (parent[0] if parent else None)
            assert chain.children_of(peer) == ([c[0] for c in node[2]] if node else [])
            assert chain.descendants_of(peer) == (
                [n[0] for n in self.walk(node)[1:]] if node else []
            )


def _ref_of(spec):
    """A random tree, labels possibly repeated: (parent pick, label,
    super) per node.  Returns the reference and whether it repeats."""
    (root_label, root_super), rest = spec
    ref = _Ref(root_label, root_super)
    nodes = [ref.root]
    for pick, label, super_peer in rest:
        parent = nodes[pick % len(nodes)]
        parent[2].append([label, super_peer, []])
        nodes.append(parent[2][-1])
    return ref, len({n[0] for n in nodes}) < len(nodes)


def _chain_of(spec):
    """The chain and reference of *spec*, or ``(None, None)`` when it
    repeats a label, which ``from_text`` must refuse."""
    ref, repeats = _ref_of(spec)
    text = "[" + ref.text() + "]"
    if repeats:
        with pytest.raises(P2PError, match="already in the chain"):
            PeerChain.from_text(text)
        return None, None
    return PeerChain.from_text(text), ref


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


class TestReferenceDifferential:
    """Every operation against the naive reference tree: one entry per
    peer (a repeat raises ``P2PError``), pre-order everywhere, children
    in insertion order, and a copy that later edits on either side
    cannot reach."""

    @settings(max_examples=300, deadline=None)
    @given(start=_TREE, ops=_OPS)
    def test_operations_equal_the_reference_tree(self, start, ops):
        chain, ref = _chain_of(start)
        if chain is None:
            chain, ref = PeerChain("A", False), _Ref("A", False)
        ref.matches(chain)
        snapshots = []
        for op in ops:
            kind, args = op[0], op[1:]
            if kind == "add":
                try:
                    ref.add(*args)
                except P2PError:
                    with pytest.raises(P2PError):
                        chain.add_invocation(*args)
                else:
                    chain.add_invocation(*args)
            elif kind == "merge":
                other, other_ref = _chain_of(args[0])
                if other is not None:
                    assert chain.merge(other) == ref.merge(other_ref)
            elif kind == "substitute":
                assert chain.substitute(*args) is ref.substitute(*args)
            elif kind == "copy":
                snapshots.append((chain, chain.to_text()))
                chain = chain.copy()
            else:
                replacement, replacement_ref = _chain_of(args[0])
                if replacement is not None:
                    chain, ref = replacement, replacement_ref
            ref.matches(chain)
        for original, text in snapshots:
            assert original.to_text() == text


class TestDescendantReplacement:
    def test_a_descendant_replacing_its_dead_ancestor_drops_the_subtree_pinned_not_endorsed(self):
        """Pinned, not endorsed.  ``reroute_chain`` may substitute a dead
        primary with a failover replica that already sits below it; the
        view has always lost the dead peer's whole subtree then, the
        replacement included (``shard_chaos`` seeds 8, 68, 152 and 174
        at 40 txns).  Lifting the replica into the slot, or leaving the
        view alone, turns pool seed 85 at 220 txns dirty with
        ``effect_duplicated`` (ROADMAP 1(b)): mend that first."""
        chain = PeerChain.from_text("[C1* -> AP7 -> AP3 -> AP6]")
        assert chain.substitute("AP7", "AP3", False) is True
        assert chain.to_text() == "[C1*]"
        assert len(chain) == 1 and not chain.contains("AP3")
        assert chain.ancestors_of("AP6") == [] and chain.children_of("C1") == []
        chain = PeerChain.from_text("[C1* -> AP7 -> [AP3 -> AP6] || [AP8]]")
        assert chain.substitute("AP7", "AP6", True) is True
        assert chain.to_text() == "[C1*]"
        # Any other present peer takes the dead peer's children.
        chain = PeerChain.from_text("[C1* -> [AP7 -> AP3 -> AP6] || [AP8]]")
        assert chain.substitute("AP7", "AP8", False) is True
        assert chain.to_text() == "[C1* -> AP8 -> AP3 -> AP6]"


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
        callee.add_invocation("AP2", "AP7", False)
        peers["AP2"].reroute_chain(txn_id, "AP2", "AP9")
        assert caller.to_text() == "[AP1 -> AP2]"
        caller.add_invocation("AP1", "AP5", False)
        peers["AP1"].reroute_chain(txn_id, "AP2", "AP3")
        assert caller.to_text() == "[AP1 -> [AP3] || [AP5]]"
        assert callee.to_text() == "[AP1 -> AP9 -> AP7]"

    def test_a_faulting_callee_does_not_share_the_callers_view(self):
        _, _, peers = make_cluster()
        txn_id = peers["AP1"].begin_transaction().txn_id
        with pytest.raises(ServiceFault):
            peers["AP1"].invoke(txn_id, "AP2", "noSuchMethod", {})
        caller = peers["AP1"].chain_views()[txn_id]
        peers["AP2"].chain_views()[txn_id].add_invocation("AP2", "AP7", False)
        assert caller.to_text() == "[AP1 -> AP2]"

    def test_a_deduplicated_replay_returns_the_first_completions_chain(self):
        network, peers, txn_id = _invoked_cluster()
        results = []
        rpc = network.rpc
        network.rpc = lambda *args: results.append(rpc(*args)) or results[-1]
        # Both views grow after the first completion ...
        peers["AP2"].chain_views()[txn_id].add_invocation("AP2", "AP7", False)
        peers["AP1"].chain_views()[txn_id].add_invocation("AP1", "AP5", False)
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
