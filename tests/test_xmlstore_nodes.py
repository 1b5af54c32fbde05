"""Unit tests for the XML node tree (repro.xmlstore.nodes)."""

import pytest

from repro.errors import NodeNotFound, XmlStructureError
from repro.xmlstore.names import QName
from repro.xmlstore.nodes import Document, Element, NodeId, Text


@pytest.fixture
def doc():
    document = Document("test")
    root = document.create_root("root")
    a = root.new_element("a", {"k": "1"})
    a.new_text("alpha")
    b = root.new_element("b")
    b.new_element("c")
    return document


class TestNodeId:
    def test_repr_roundtrip(self):
        node_id = NodeId(3, 17)
        assert NodeId.parse(repr(node_id)) == node_id

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            NodeId.parse("nonsense")
        with pytest.raises(ValueError):
            NodeId.parse("x3.n1")
        with pytest.raises(ValueError):
            NodeId.parse("d3n1")

    def test_equality_and_hash(self):
        assert NodeId(1, 2) == NodeId(1, 2)
        assert NodeId(1, 2) != NodeId(1, 3)
        assert NodeId(1, 2) != NodeId(2, 2)
        assert len({NodeId(1, 2), NodeId(1, 2), NodeId(1, 3)}) == 2

    def test_ids_unique_within_document(self, doc):
        ids = [node.node_id for node in doc.iter()]
        assert len(ids) == len(set(ids))

    def test_ids_unique_across_documents(self):
        d1, d2 = Document(), Document()
        r1, r2 = d1.create_root("r"), d2.create_root("r")
        assert r1.node_id != r2.node_id


class TestTreeConstruction:
    def test_single_root(self, doc):
        with pytest.raises(XmlStructureError):
            doc.create_root("another")

    def test_append_cross_document_rejected(self):
        d1, d2 = Document(), Document()
        r1 = d1.create_root("r")
        orphan = d2.create_element("x")
        with pytest.raises(XmlStructureError):
            r1.append(orphan)

    def test_append_already_parented_rejected(self, doc):
        a = doc.root.first_child("a")
        with pytest.raises(XmlStructureError):
            doc.root.first_child("b").append(a)

    def test_cycle_rejected(self, doc):
        a = doc.root.first_child("a")
        rec = a.detach()
        with pytest.raises(XmlStructureError):
            rec.node.append(rec.node)

    def test_attaching_under_own_descendant_rejected(self, doc):
        b = doc.root.first_child("b")
        b.detach()
        deep = b.first_child("c")
        for _ in range(3000):  # the check climbs ancestors: no recursion, O(depth)
            deep = deep.new_element("c")
        for parent in (deep, b.first_child("c")):
            with pytest.raises(XmlStructureError, match="^attaching a node under itself creates a cycle$"):
                parent.append(b)
            with pytest.raises(XmlStructureError, match="creates a cycle"):
                parent.insert_at(0, b)
        doc.root.append(b)  # its own ancestors are no obstacle elsewhere
        assert b.parent is doc.root

    def test_insert_at_clamps(self, doc):
        root = doc.root
        x = doc.create_element("x")
        root.insert_at(99, x)
        assert root.children[-1] is x
        y = doc.create_element("y")
        root.insert_at(-5, y)
        assert root.children[0] is y


class TestNavigation:
    def test_iter_preorder(self, doc):
        names = [n.name.local for n in doc.root.iter_elements()]
        assert names == ["root", "a", "b", "c"]

    def test_ancestors(self, doc):
        c = doc.root.first_child("b").first_child("c")
        assert [e.name.local for e in c.ancestors()] == ["b", "root"]

    def test_root_and_attached(self, doc):
        c = doc.root.first_child("b").first_child("c")
        assert c.root() is doc.root
        assert c.is_attached()
        doc.root.first_child("b").detach()
        assert not c.is_attached()

    def test_index_in_parent(self, doc):
        assert doc.root.first_child("b").index_in_parent() == 1

    def test_index_of_parentless_raises(self, doc):
        with pytest.raises(XmlStructureError):
            doc.root.index_in_parent()


class TestDetach:
    def test_detach_record_anchors(self, doc):
        root = doc.root
        mid = doc.create_element("mid")
        root.insert_at(1, mid)
        rec = mid.detach()
        assert rec.parent_id == root.node_id
        assert rec.index == 1
        assert doc.get_node(rec.before_id).name.local == "a"
        assert doc.get_node(rec.after_id).name.local == "b"

    def test_detach_first_has_no_before(self, doc):
        rec = doc.root.first_child("a").detach()
        assert rec.before_id is None
        assert rec.after_id is not None

    def test_detach_root_raises(self, doc):
        with pytest.raises(XmlStructureError):
            doc.root.detach()

    def test_detached_still_indexed(self, doc):
        a = doc.root.first_child("a")
        a.detach()
        assert doc.has_node(a.node_id)
        assert doc.get_node(a.node_id) is a


class TestDocumentIndex:
    def test_get_node_missing(self, doc):
        with pytest.raises(NodeNotFound):
            doc.get_node(NodeId(999, 999))

    def test_size(self, doc):
        # root, a, text, b, c
        assert doc.size() == 5


class TestClone:
    def test_clone_preserves_structure(self, doc):
        copy = doc.clone_tree()
        assert [n.name.local for n in copy.iter_elements()] == [
            n.name.local for n in doc.iter_elements()
        ]

    def test_clone_preserves_ids(self, doc):
        copy = doc.clone_tree()
        assert copy.root.node_id == doc.root.node_id
        assert copy.has_node(doc.root.first_child("a").node_id)

    def test_clone_fresh_ids(self, doc):
        copy = Document(doc.name)
        copy.root = doc.root.clone_into(copy, preserve_ids=False)
        assert copy.root.node_id != doc.root.node_id

    def test_clone_is_independent(self, doc):
        copy = doc.clone_tree()
        doc.root.first_child("a").detach()
        assert copy.root.first_child("a") is not None

    def test_clone_into_preserve_ids_registers(self, doc):
        target = Document("target")
        clone = doc.root.clone_into(target, preserve_ids=True)
        assert target.get_node(doc.root.node_id) is clone


class TestTextAndAttributes:
    def test_text_content_concatenates(self, doc):
        b = doc.root.first_child("b")  # children: [<c/>]
        b.new_text("x")  # children: [<c/>, "x"]
        b.first_child("c").new_text("y")
        assert b.text_content() == "yx"

    def test_attributes_preserved_on_clone(self, doc):
        copy = doc.clone_tree()
        assert copy.root.first_child("a").attributes == {"k": "1"}

    def test_subtree_size(self, doc):
        assert doc.root.first_child("a").subtree_size() == 2
        assert doc.root.subtree_size() == 5

    def test_qname_on_element(self):
        d = Document()
        root = d.create_root("axml:sc")
        assert root.name == QName("sc", "axml")
        assert root.name.prefix == "axml"
