"""Property-based tests (hypothesis) on the library's core invariants.

* XML serialize ∘ parse is the identity on trees;
* dynamic compensation restores the canonical pre-state for arbitrary
  operation sequences — the paper's central correctness claim;
* peer chains round-trip through the bracket notation;
* the operation log's undo order is the reverse of execution order;
* ``AXMLDocument.service_calls()`` (an index lookup) lists what a walk
  that prunes call machinery lists.
"""

import string as stringlib

from hypothesis import given, settings, strategies as st

from repro.axml.document import AXMLDocument
from repro.errors import UpdateError
from repro.obs.spans import SpanCollector
from repro.p2p.chain import PeerChain
from repro.query.parser import parse_action
from repro.query.update import apply_action
from repro.sim.rng import SeededRng
from repro.sim.workload import OperationMix, generate_catalogue, generate_operation
from repro.txn.compensation import build_compensation_for_entries, compensating_actions_for
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction
from repro.txn.wal import OperationLog
from repro.xmlstore.names import AXML_META_LOCALS, AXML_PREFIX, SC_NAME
from repro.xmlstore.nodes import Document, Element
from repro.xmlstore.parser import parse_document
from repro.xmlstore.serializer import canonical, serialize

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_name_start = stringlib.ascii_letters + "_"
_ncname = st.builds(
    str.__add__,
    st.sampled_from(_name_start),
    # <= 4 characters in all, so no generated attribute can be "repro:id"
    st.text(alphabet=_name_start + stringlib.digits + ".-", max_size=3),
)
_name = st.one_of(_ncname, st.builds("{}:{}".format, _ncname, _ncname))
# The store is whitespace-normalizing (the parser trims surrounding
# whitespace of text nodes), so generated text is pre-stripped; what is
# left is parse-normal: markup characters, reference look-alikes,
# interior line breaks and non-ASCII all survive a round trip.
_text_value = (
    st.text(
        alphabet=stringlib.ascii_letters + stringlib.digits + " &<>'\";#[]-?!\n\t\u00e9\u2603",
        min_size=1,
        max_size=12,
    )
    .map(str.strip)
    .filter(bool)
)


@st.composite
def xml_trees(draw, max_depth=3):
    """A random Document with arbitrary names, attributes and text."""

    def build(parent: Element, depth: int) -> None:
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["element", "text"]))
            if kind == "text":
                parent.new_text(draw(_text_value))
            else:
                child = parent.new_element(draw(_name))
                for attr in draw(st.lists(_name, max_size=2, unique=True)):
                    child.attributes[attr] = draw(_text_value)
                if depth < max_depth:
                    build(child, depth + 1)

    document = Document("prop")
    root = document.create_root(draw(_name))
    build(root, 0)
    return document


class TestXmlRoundtrip:
    @given(xml_trees())
    @settings(max_examples=60, deadline=None)
    def test_parse_serialize_identity(self, document):
        text = serialize(document)
        reparsed = parse_document(text)
        assert canonical(reparsed) == canonical(document)

    @given(xml_trees())
    @settings(max_examples=30, deadline=None)
    def test_id_persistence_roundtrip(self, document):
        from repro.xmlstore.serializer import rebind_ids

        text = serialize(document, include_ids=True)
        reparsed = parse_document(text)
        rebind_ids(reparsed)
        original_ids = {e.node_id for e in document.iter_elements()}
        restored_ids = {e.node_id for e in reparsed.iter_elements()}
        assert original_ids == restored_ids

    @given(xml_trees())
    @settings(max_examples=30, deadline=None)
    def test_clone_preserves_canonical(self, document):
        assert canonical(document.clone_tree()) == canonical(document)

    @given(xml_trees())
    @settings(max_examples=30, deadline=None)
    def test_subtree_size_consistent(self, document):
        assert document.size() == sum(1 for _ in document.iter())


class TestCompensationProperty:
    """The §3.1 invariant: op ∘ compensation == identity (canonically)."""

    @given(st.integers(0, 2**31 - 1), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_random_transaction_compensates_exactly(self, seed, length):
        rng = SeededRng(seed)
        axml = generate_catalogue(rng, item_count=rng.randint(3, 10), name="Cat")
        document = axml.document
        pre = canonical(document)
        applied = []
        for _ in range(length):
            action = generate_operation(rng, axml)
            try:
                result = apply_action(document, action)
            except UpdateError:
                continue  # operation found no target; skip
            applied.append(result)
        # compensate in reverse order of application
        for result in reversed(applied):
            for comp in compensating_actions_for(result, "Cat"):
                apply_action(document, comp, tolerate_missing_targets=True)
        assert canonical(document) == pre

    @given(st.integers(0, 2**31 - 1), st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_log_driven_compensation(self, seed, length):
        """Same invariant, via the WAL + build_compensation_for_entries path."""
        rng = SeededRng(seed)
        axml = generate_catalogue(rng, item_count=rng.randint(3, 8), name="Cat")
        manager = TransactionManager("P", lambda name: axml, SpanCollector(lambda: 0.0))
        manager.begin(Transaction("T1", "P"))
        pre = canonical(axml.document)
        for _ in range(length):
            action = generate_operation(rng, axml)
            try:
                manager.execute("T1", action, axml.name)
            except UpdateError:
                continue
        for plan in build_compensation_for_entries(manager.log.undo_entries("T1")):
            plan.execute(axml.document)
        assert canonical(axml.document) == pre

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_unordered_compensation_reaches_acceptable_state(self, seed):
        """Unordered mode must still restore content, if not order."""
        rng = SeededRng(seed)
        axml = generate_catalogue(rng, item_count=5, name="Cat")
        document = axml.document
        pre_names = sorted(
            e.name.local for e in document.iter_elements()
        )
        action = generate_operation(rng, axml, OperationMix(0, 1, 0, 0))
        result = apply_action(document, action)
        for comp in compensating_actions_for(result, "Cat", ordered=False):
            apply_action(document, comp, tolerate_missing_targets=True)
        post_names = sorted(e.name.local for e in document.iter_elements())
        assert post_names == pre_names


class TestChainProperty:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 12))
    @settings(max_examples=50, deadline=None)
    def test_random_chain_roundtrip(self, seed, size):
        rng = SeededRng(seed)
        chain = PeerChain("AP1", root_super=rng.coin(0.5))
        peers = ["AP1"]
        for index in range(2, size + 2):
            parent = rng.choice(peers)
            peer = f"AP{index}"
            chain.add_invocation(parent, peer, rng.coin(0.3))
            peers.append(peer)
        restored = PeerChain.from_text(chain.to_text())
        assert restored.to_text() == chain.to_text()
        for peer in peers:
            assert restored.parent_of(peer) == chain.parent_of(peer)
            assert restored.children_of(peer) == chain.children_of(peer)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 10))
    @settings(max_examples=30, deadline=None)
    def test_ancestors_connect_to_root(self, seed, size):
        rng = SeededRng(seed)
        chain = PeerChain("AP1")
        peers = ["AP1"]
        for index in range(2, size + 2):
            parent = rng.choice(peers)
            chain.add_invocation(parent, f"AP{index}")
            peers.append(f"AP{index}")
        for peer in peers[1:]:
            ancestors = chain.ancestors_of(peer)
            assert ancestors[-1] == "AP1"
            # walking parents one at a time gives the same list
            walked, current = [], peer
            while chain.parent_of(current):
                current = chain.parent_of(current)
                walked.append(current)
            assert walked == ancestors


class TestLogProperty:
    @given(st.lists(st.sampled_from(["T1", "T2", "T3"]), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_undo_order_is_reverse(self, txn_ids):
        log = OperationLog("P")
        for txn_id in txn_ids:
            log.append(txn_id, "update", "D", "<a/>", (), 0.0, None)
        for txn_id in set(txn_ids):
            entries = log.entries_for(txn_id)
            assert [e.seq for e in log.undo_entries(txn_id)] == [
                e.seq for e in reversed(entries)
            ]

    @given(st.lists(st.sampled_from(["T1", "T2"]), min_size=1, max_size=15))
    @settings(max_examples=30, deadline=None)
    def test_truncate_leaves_others(self, txn_ids):
        log = OperationLog("P")
        for txn_id in txn_ids:
            log.append(txn_id, "update", "D", "<a/>", (), 0.0, None)
        t2_count = len(log.entries_for("T2"))
        log.truncate("T1")
        assert log.entries_for("T1") == []
        assert len(log.entries_for("T2")) == t2_count


# ---------------------------------------------------------------------------
# service-call discovery
# ---------------------------------------------------------------------------

#: Content beside every piece of call machinery, so that drawn trees put
#: ``axml:sc`` under params, under handlers and in result regions.
_AXML_NAMES = (
    "item", "x", "axml:sc", "axml:sc", "axml:params", "axml:param",
    "axml:catch", "axml:catchAll", "axml:retry",
)


@st.composite
def axml_trees(draw, max_depth=5):
    def build(parent: Element, depth: int) -> None:
        for _ in range(draw(st.integers(0, 3))):
            child = parent.new_element(draw(st.sampled_from(_AXML_NAMES)))
            if depth < max_depth:
                build(child, depth + 1)

    document = Document("D")
    build(document.create_root("D"), 0)
    return document


def walked_calls(document: Document, pruned=AXML_META_LOCALS):
    """Ids of the ``axml:sc`` elements a walk from the root reaches when
    it does not enter an ``axml:<pruned>`` child — the reference."""
    out = []
    stack = [document.root]
    while stack:
        element = stack.pop()
        if element.name == SC_NAME:
            out.append(element.node_id)
        stack.extend(
            child
            for child in reversed(element.children)
            if isinstance(child, Element)
            and not (child.name.prefix == AXML_PREFIX and child.name.local in pruned)
        )
    return out


def listed_calls(document: Document):
    return [call.call_id for call in AXMLDocument(document).service_calls()]


class TestServiceCallDiscovery:
    @given(axml_trees(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_index_lookup_equals_pruning_walk(self, document, data):
        original = walked_calls(document)
        assert listed_calls(document) == original
        handlers = AXML_META_LOCALS - {"params"}
        if not any(
            ancestor.name.prefix == AXML_PREFIX and ancestor.name.local in handlers
            for call in document.index.postings("sc").values()
            for ancestor in call.ancestors()
        ):
            # No handler replica: what the params-only walk listed before.
            assert walked_calls(document, pruned={"params"}) == original
        assert listed_calls(document.clone_tree()) == original

        elements = list(document.iter_elements())[1:]
        if not elements:
            return
        victim = data.draw(st.sampled_from(elements))
        inside = {e.node_id for e in victim.iter_elements()}
        record = victim.detach()
        assert listed_calls(document) == walked_calls(document)
        assert not inside & set(listed_calls(document))
        assert listed_calls(document.clone_tree()) == walked_calls(document)
        document.get_node(record.parent_id).insert_at(record.index, victim)
        assert listed_calls(document) == original
