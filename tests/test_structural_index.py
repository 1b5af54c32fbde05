"""Structural index (repro.xmlstore.index): maintenance, on-demand
ordering, meter parity.

The contract under test: answered from the index, every query returns
the same nodes in the same order AND charges the traversal meter the
same count as a fresh full-tree walk — after any interleaving of
mutations, including compensation replay.
"""

import sys
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.obs.prof import PROF
from repro.query.ast import ActionType, UpdateAction
from repro.query.evaluate import evaluate_select
from repro.query.parser import parse_action, parse_select
from repro.query.update import apply_action
from repro.sim.rng import SeededRng
from repro.txn.compensation import compensating_actions_for, node_query
from repro.xmlstore import path as path_module
from repro.xmlstore.names import QName, is_axml_meta_name
from repro.xmlstore.nodes import Document, Element
from repro.xmlstore.parser import parse_document
from repro.xmlstore.path import TraversalMeter, parse_path
from repro.xmlstore.serializer import canonical, serialize

ATP = (
    "<ATPList>"
    '<player rank="1"><name><lastname>Federer</lastname></name>'
    "<citizenship>Swiss</citizenship><points>475</points></player>"
    '<player rank="2"><name><lastname>Nadal</lastname></name>'
    "<citizenship>Spanish</citizenship></player>"
    '<player rank="3"><name><lastname>Roddick</lastname></name>'
    "<citizenship>American</citizenship></player>"
    "</ATPList>"
)


def walk_only():
    """The reference walk: inside the block every descendant step's index
    lookup declines, so ``_logical_descendants`` answers it."""
    return mock.patch.object(path_module, "_indexed_descendants", lambda *args: None)


def assert_parity(context, path_text):
    """Indexed answer == walk answer, nodes, order and meter charge.

    *context* is a document or any element of one (attached or not)."""
    path = parse_path(path_text)
    fast_meter, slow_meter = TraversalMeter(), TraversalMeter()
    fast = path.evaluate(context, fast_meter)
    with walk_only():
        slow = path.evaluate(context, slow_meter)
    assert [n.node_id for n in fast] == [n.node_id for n in slow], path_text
    assert fast_meter.nodes_traversed == slow_meter.nodes_traversed, path_text
    return fast


def assert_same_tree(source, copy, same_ids):
    """*copy* is what the copier owes for *source*: same bytes, logical
    counts and — of the attached elements — postings; with *same_ids* the
    same id on every node, else fresh ids in document order."""
    assert serialize(copy, include_ids=same_ids) == serialize(source, include_ids=same_ids)
    assert [e._logical_count for e in copy.iter_elements()] == [
        e._logical_count for e in source.iter_elements()
    ]
    if same_ids:
        assert [n.node_id for n in copy.iter()] == [n.node_id for n in source.iter()]
    else:
        assert [n.node_id.node_serial for n in copy.iter()] == list(range(1, copy.size() + 1))
    attached = list(copy.iter_elements())
    for name in {e.name.local for e in attached}:
        assert dict(copy.index.postings(name)) == {
            e.node_id: e for e in attached if e.name.local == name
        }
    assert repr(copy.index).endswith(f"entries={len(attached)})")  # and nothing else
    assert all(copy.get_node(n.node_id) is n for n in copy.iter())


class TestPostingsMaintenance:
    def test_new_elements_are_indexed(self):
        doc = parse_document(ATP, name="ATPList")
        assert len(doc.index.postings("player")) == 3
        assert len(doc.index.postings("lastname")) == 3
        assert len(doc.index.postings("nosuch")) == 0

    def test_detach_keeps_posting_but_hides_from_queries(self):
        doc = parse_document(ATP, name="ATPList")
        player = parse_path("ATPList//player").evaluate(doc)[0]
        player.detach()
        # Existence is tracked (the id stays resolvable for compensation)...
        candidates = list(doc.index.postings("player").values())
        assert len(candidates) == 3
        # ...but ordering the candidates under the root drops it...
        assert player not in doc.index.order_ranks(candidates, doc.root)
        # ...while under itself (a query whose context is the detached node) it leads.
        assert doc.index.order_ranks(candidates, player) == [player]
        assert len(assert_parity(doc, "ATPList//player")) == 2

    def test_clone_into_preserved_ids_rekeys(self):
        doc = parse_document(ATP, name="ATPList")
        copy = doc.clone(preserve_ids=True)
        assert len(copy.index.postings("player")) == 3
        originals = set(doc.index.postings("player"))
        assert set(copy.index.postings("player")) == originals
        assert_parity(copy, "ATPList//player")


class TestMeterParity:
    def test_logical_count_matches_walk_everywhere(self):
        from repro.xmlstore.path import _logical_descendants

        doc = parse_document(ATP, name="ATPList")
        for element in doc.index.postings("player").values():
            assert element._logical_count == len(_logical_descendants(element))
        assert doc.root._logical_count == len(_logical_descendants(doc.root))

    def test_logical_count_tracks_mutations(self):
        from repro.xmlstore.path import _logical_descendants

        doc = parse_document(ATP, name="ATPList")
        player = parse_path("ATPList//player").evaluate(doc)[0]
        player.append(Element(doc, "coach"))
        player.children[0].detach()
        for element in list(doc.index.postings("player").values()) + [doc.root]:
            if element.is_attached() or element.parent is None:
                assert element._logical_count == len(_logical_descendants(element))

    def test_axml_metadata_is_pruned_from_counts(self):
        doc = parse_document(
            "<r><axml:sc xmlns:axml='x' service='S'>"
            "<axml:params><axml:param name='p'>1</axml:param></axml:params>"
            "<points>9</points></axml:sc></r>",
            name="r",
        )
        from repro.xmlstore.path import _logical_descendants

        assert doc.root._logical_count == len(_logical_descendants(doc.root))
        # The sc container expands; params stay invisible.
        assert_parity(doc, "r//points")
        assert_parity(doc, "r//param")


class TestChildCount:
    """``Element._child_count`` — the element children a child step's
    loop passes, ``axml:sc`` expanded — is what the value-postings join
    charges the meter per candidate, so it must equal a fresh
    ``_logical_children`` after any mutation, on ``axml:sc`` containers,
    metadata regions, detached subtrees and plain elements alike."""

    NAMES = ("a", "b", "p:a", "axml:sc", "axml:sc", "axml:params", "axml:catch", "axml:value")

    @staticmethod
    def assert_counts(doc):
        from repro.xmlstore.path import Step, _logical_children, _logical_descendants

        step = Step("child", QName("a"))
        for element in doc._index.values():
            if isinstance(element, Element):
                assert element._child_count == len(_logical_children(element, step)), element
                assert element._logical_count == len(_logical_descendants(element)), element

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_child_count_tracks_every_mutation(self, data):
        doc = Document("R")
        doc.create_root(QName("R"))
        expanded = False
        for _ in range(data.draw(st.integers(1, 40))):
            elements = [n for n in doc._index.values() if isinstance(n, Element)]
            kind = data.draw(st.sampled_from(("new", "new", "text", "detach", "move", "clone")))
            if kind == "detach":
                attached = [n for n in doc.root.iter() if n is not doc.root]
                if attached:
                    data.draw(st.sampled_from(attached)).detach()
            else:
                if kind == "new":
                    node = Element(doc, data.draw(st.sampled_from(self.NAMES)))
                elif kind == "text":
                    node = doc.root.new_text("t").detach().node
                else:
                    tops = [e for e in elements if e.parent is None and e is not doc.root]
                    if kind == "clone":
                        node = data.draw(st.sampled_from(elements)).clone_into(doc)
                    elif tops:
                        node = data.draw(st.sampled_from(tops))
                    else:
                        continue
                parents = [e for e in elements if e is not node and node not in e.ancestors()]
                parent = data.draw(st.sampled_from(parents))
                parent.insert_at(data.draw(st.integers(0, len(parent.children))), node)
            self.assert_counts(doc)
            expanded = expanded or any(
                e._child_count > len(e.child_elements()) for e in doc.iter_elements())
        event(f"an axml:sc expanded into its parent's count: {expanded}")


class TestValuePostings:
    """``i/sku = X`` is a lookup in the index's per-name value maps: a map
    outlives writes that cannot change its name's texts, and is dropped
    by every one that can."""

    DOC = (
        "<C><book><sku>1</sku><price>5</price></book><cd><sku>2</sku><price>7</price></cd>"
        "<book><sku>3</sku><price>5.0</price></book></C>"
    )

    @staticmethod
    def skus(doc, where):
        query = parse_select(f"Select i/sku from i in C//book where {where};")
        return evaluate_select(query, doc).texts()

    def test_a_map_outlives_writes_to_other_names(self):
        doc = parse_document(self.DOC, name="C")
        assert self.skus(doc, "i/sku = 3") == ["3"]
        maps = doc.index._values["sku"]
        book = doc.root.children[0]
        book.new_element("note").new_text("x")
        book.children[1].detach()
        assert self.skus(doc, "i/sku = 1") == ["1"]
        assert doc.index._values["sku"] is maps

    @pytest.mark.parametrize("write", [
        lambda sku, doc: sku.new_text("0"),
        lambda sku, doc: sku.children[0].detach(),
        lambda sku, doc: sku.insert_at(0, Element(doc, "b")),
        lambda sku, doc: sku.parent.append(Element(doc, "sku")),
        lambda sku, doc: doc.restore_from(parse_document("<C><book/></C>")),
    ], ids=["text", "detach-text", "child", "create", "restore"])
    def test_a_write_that_can_change_a_sku_text_drops_the_map(self, write):
        doc = parse_document(self.DOC, name="C")
        assert self.skus(doc, "i/sku = 1") == ["1"]
        write(doc.root.children[0].children[0], doc)
        assert "sku" not in doc.index._values

    def test_a_call_is_transparent_and_its_metadata_is_not_content(self):
        doc = parse_document(
            "<C><book><axml:sc xmlns:axml='x' service='S'><axml:sc service='T'>"
            "<sku>9</sku></axml:sc><axml:params><sku>8</sku></axml:params></axml:sc>"
            "</book><book><p:sku xmlns:p='y'>9</p:sku></book></C>",
            name="C",
        )
        assert self.skus(doc, "i/sku = 9") == ["9"]
        assert self.skus(doc, "i/sku = 8") == []
        for source, where, found in (
            ("C//axml:sc", "i/sku = 9", 2), ("C//axml:params", "i/sku = 8", 0),
            ("C//book", "i/p:sku = 9", 1),
        ):
            query = parse_select(f"Select i from i in {source} where {where};")
            assert len(evaluate_select(query, doc)) == found, (source, where)

    def test_numbers_compare_as_numbers_and_the_rest_as_strings(self):
        doc = parse_document(self.DOC, name="C")
        assert self.skus(doc, "i/price = 5") == ["1", "3"]
        assert self.skus(doc, "i/price = 5.0") == ["1", "3"]
        assert self.skus(doc, "i/price/text() = 7") == []
        assert self.skus(doc, "i/sku = 01") == ["1"]
        assert self.skus(doc, "i/sku = x1") == []


class TestMutateUnderQuery:
    """The satellite scenario: every mutation step re-checked against a
    fresh walk — insert, delete, replace, and compensation replay."""

    ACTIONS = (
        '<action type="insert"><data><coach>Lundgren</coach></data>'
        "<location>Select p from p in ATPList//player "
        "where p/name/lastname = Federer;</location></action>",
        '<action type="delete"><location>Select c from c in '
        "ATPList//player/citizenship;</location></action>",
        '<action type="replace"><data><points>500</points></data>'
        "<location>Select pt from pt in ATPList//points;</location></action>",
    )
    PATHS = ("ATPList//player", "ATPList//citizenship", "ATPList//points",
             "ATPList//lastname", "ATPList//coach")

    def test_insert_delete_replace_interleaved_with_queries(self):
        doc = parse_document(ATP, name="ATPList")
        for action_xml in self.ACTIONS:
            apply_action(doc, parse_action(action_xml))
            for path_text in self.PATHS:
                assert_parity(doc, path_text)

    def test_compensation_replay_keeps_index_exact(self):
        doc = parse_document(ATP, name="ATPList")
        pre = canonical(doc)
        for action_xml in self.ACTIONS:
            result = apply_action(doc, parse_action(action_xml))
            for action in compensating_actions_for(result, "ATPList", True):
                apply_action(doc, action, tolerate_missing_targets=True)
                for path_text in self.PATHS:
                    assert_parity(doc, path_text)
        assert canonical(doc) == pre  # compensation restored the document

    #: What the property inserts: plain and nested same-name matches (a
    #: match that is an ancestor of a match), an ``axml:sc`` whose params
    #: region hides matches beside visible results, a handler region —
    #: in ``x``/``y``/``z`` filler no query names, so that postings stay
    #: smaller than most subtrees and the index is not refused.
    FRAGMENTS = (
        "<a><x/><y/></a>",
        "<x><b><a/><c/></b><y><z/></y></x>",
        "<y><a><a><b/><a/><z/></a></a><x/></y>",
        "<c><axml:sc xmlns:axml='x' service='S'><axml:params>"
        "<axml:param name='p'><a><b/></a></axml:param></axml:params>"
        "<a/><b/><x><z/></x></axml:sc></c>",
        "<z><axml:sc xmlns:axml='x' service='S'><axml:catch fault='F'>"
        "<a><c/></a></axml:catch><c><a/><y/></c></axml:sc><x/></z>",
    )

    def test_randomized_equivalence(self):
        """Seeded property: after every insert/delete/replace, every
        compensation replay (detached candidates come back under their
        rebound ids) and every copy — the one copier through each of
        its entry points, checked node for node against its source —
        ``//name`` from the root, an inner element, a detached element
        and a metadata-shadowed element answers exactly as the walk
        does."""
        rng = SeededRng(41)
        doc = Document("R")
        doc.create_root(QName("R"))
        undo = []  # applied results, newest last, not yet compensated
        detached = []  # elements a delete/replace took out of the tree
        cases = {"root": 0, "inner": 0, "detached": 0, "shadowed": 0}
        for round_no in range(200):
            elements = list(doc.iter_elements())
            target = rng.choice(elements)
            by_id = node_query(target.node_id, "R")
            roll = rng.random()
            if target is doc.root or (roll < 0.5 and len(elements) < 300):
                anchor = None
                if target.children and rng.coin(0.4):
                    sibling = rng.choice(target.children)
                    anchor = (rng.choice(["before", "after"]), repr(sibling.node_id))
                action = UpdateAction(
                    ActionType.INSERT, by_id, (rng.choice(self.FRAGMENTS),), anchor
                )
            elif roll < 0.8:
                action = UpdateAction(ActionType.DELETE, by_id)
            else:
                action = UpdateAction(
                    ActionType.REPLACE, by_id, (rng.choice(self.FRAGMENTS),)
                )
            result = apply_action(doc, action)
            if target.parent is None and target is not doc.root:
                detached.append(target)
            undo.append(result)
            if rng.coin(0.3):
                for action in compensating_actions_for(undo.pop(), "R", True):
                    apply_action(doc, action, tolerate_missing_targets=True)
            if round_no % 20 == 19:
                rebound = doc.clone_tree(preserve_ids=False)
                assert_same_tree(doc, rebound, same_ids=False)
                # Carry on in a copy whose ids were adopted, not allocated.
                route = round_no // 20 % 3
                if route == 0:
                    copy = Document("R")
                    copy.root = doc.root.clone_into(copy, preserve_ids=True)
                elif route == 1:
                    copy = doc.clone_tree(preserve_ids=True)
                else:
                    copy = rebound  # every node and posting of it replaced
                    copy.restore_from(doc)
                assert_same_tree(doc, copy, same_ids=True)
                doc, detached = copy, []
            elements = list(doc.iter_elements())
            shadowed = [
                e for e in elements
                if any(is_axml_meta_name(n.name) for n in [e, *e.ancestors()])
            ]
            # Inner contexts big enough that the index is not refused.
            inner = [e for e in elements[1:] if e._logical_count >= 8] or elements
            contexts = {"inner": inner, "detached": detached, "shadowed": shadowed}
            for name in ("a", "b", "c"):
                assert_parity(doc, f"R//{name}")
                cases["root"] += 1
                for kind, pool in contexts.items():
                    if pool:
                        assert_parity(rng.choice(pool), f"//{name}")
                        cases[kind] += 1
        assert all(cases.values()), cases
        assert sum(cases.values()) >= 2000, cases

    def test_deep_same_name_chain_is_linear(self):
        """3 000 nested ``<a>``: every match is an ancestor of the next.
        Parity with the walk, and the climbs are memoised — bounded by a
        call count (exact on any machine), not by wall time."""
        depth = 3000
        doc = Document("a")
        node = doc.create_root(QName("a"))
        for _ in range(depth - 1):
            node = node.new_element("a")
        path = parse_path("a//a")
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            fast = path.evaluate(doc)
        finally:
            sys.setprofile(previous)
        assert len(fast) == depth
        assert calls < 20 * depth, calls  # quadratic would be ~4.5 M
        assert_parity(doc, "a//a")
        assert_parity(node.parent, "//a")


class TestInsertRecordIndex:
    """``_apply_insert`` logs the position it placed the node at — the
    same number ``index_in_parent()`` would find by scanning."""

    @pytest.mark.parametrize("anchor", [None, "before", "after", "vanished"])
    def test_logged_index_is_position_in_parent(self, anchor):
        doc = parse_document(ATP, name="ATPList")
        players = parse_path("ATPList//player").evaluate(doc)
        attribute = ""
        if anchor == "vanished":
            attribute = f' anchor="before:d{doc.serial}.n99999"'
        elif anchor is not None:
            attribute = f' anchor="{anchor}:{players[1].node_id!r}"'
        result = apply_action(doc, parse_action(
            f'<action type="insert"{attribute}><data><player rank="9"/></data>'
            "<location>Select r from r in ATPList;</location></action>"
        ))
        (record,) = result.records
        expected = {None: 3, "before": 1, "after": 2, "vanished": 3}[anchor]
        assert record.index == expected
        assert record.index == doc.get_node(record.node_id).index_in_parent()


class TestSelectEvaluationParity:
    def test_select_with_where_and_selects(self):
        doc = parse_document(ATP, name="ATPList")
        query = parse_select(
            "Select p/citizenship from p in ATPList//player "
            "where p/name/lastname = Nadal;"
        )
        fast_meter, slow_meter = TraversalMeter(), TraversalMeter()
        fast = evaluate_select(query, doc, fast_meter)
        with walk_only():
            slow = evaluate_select(query, doc, slow_meter)
        assert fast.texts() == slow.texts() == ["Spanish"]
        assert fast_meter.nodes_traversed == slow_meter.nodes_traversed


class TestContextOutsideLiveTree:
    """Contexts a walk from the document root never reaches are answered
    from the index like any other: same nodes, order and meter charge as
    the walk, and ``query_index_hits`` is the counter that moves."""

    #: 14 elements, three of them ``<a>`` (one an ancestor of another).
    BODY = "<x><a><y/><a/></a></x><y><z/><z/><a/></y><z/><z/><x/><x/><y/><y/>"
    DOC = (
        f"<r><live>{BODY}</live><gone>{BODY}</gone>"
        "<axml:sc xmlns:axml='x' service='S'>"
        f"<axml:params><axml:param name='p'><w>{BODY}</w></axml:param></axml:params>"
        f"<axml:catch faultName='F'>{BODY}<axml:retry><a/></axml:retry></axml:catch>"
        "</axml:sc></r>"
    )

    def contexts(self):
        doc = parse_document(self.DOC, name="r")
        gone = doc.root.first_child("gone")
        gone.detach()
        (under_params,) = doc.index.postings("w").values()
        (handler,) = doc.index.postings("catch").values()
        return {"detached": gone, "under params": under_params, "is a catch": handler}

    @pytest.mark.parametrize("kind", ["detached", "under params", "is a catch"])
    def test_answered_from_the_index_like_the_walk(self, kind):
        context = self.contexts()[kind]
        before = PROF.snapshot()
        found = parse_path("//a").evaluate(context)
        moved = PROF.delta_since(before)
        assert moved.get("query_index_hits") == 1, moved
        assert "query_tree_walks" not in moved and "query_index_skips" not in moved
        # The handler's own ``axml:retry`` stays machinery below it.
        assert len(found) == 3
        assert all(context in [n, *n.ancestors()] for n in found)
        assert found == assert_parity(context, "//a")
        assert_parity(context, "//z")
        assert_parity(context, "//nosuch")


class TestSnapshotRollbackInvalidation:
    def test_rollback_resets_index(self):
        from repro.axml.document import AXMLDocument
        from repro.baselines.snapshot_rollback import SnapshotRollback

        doc = parse_document(ATP, name="ATPList")
        axml = AXMLDocument(doc)
        guard = SnapshotRollback()
        guard.guard("t1", axml)
        apply_action(doc, parse_action(self_delete()))
        assert len(assert_parity(doc, "ATPList//player")) == 0
        assert guard.rollback("t1", axml)
        assert len(assert_parity(doc, "ATPList//player")) == 3


def self_delete() -> str:
    return (
        '<action type="delete"><location>Select p from p in '
        "ATPList//player;</location></action>"
    )
