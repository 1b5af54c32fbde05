"""The mutable XML node tree with stable node identifiers.

Design notes
------------
The paper's dynamic-compensation construction (§3.1) depends on three
properties of the store that plain DOM trees do not give you for free:

* **Stable unique node ids** — an AXML insert "returns the (unique) ID of
  the inserted node"; its compensation deletes *that id*, not whatever
  happens to match a path later.
* **Ordered children with sibling anchors** — the paper notes the
  delete-compensation "does not preserve the original ordering of the
  deleted nodes" unless the insert semantics allow insertion
  "before/after a specific node" [16].  We record sibling anchors on
  detach so compensation can be order-preserving.
* **Deep cloning that preserves ids** — logging the result of a
  ``<location>`` query must capture the deleted subtree exactly,
  including ids, so re-insertion restores the original identities.

Node ids are allocated from a per-document counter, so two documents can
be built independently and merged without coordination (ids are qualified
by the document's own id).

A document is its tree, the id → node map, the tag postings
(:mod:`repro.xmlstore.index`) and the per-element logical counts the
traversal meter charges; the index's derived structures (value postings,
seek totals) are kept or dropped by the attach/detach climb
(:func:`_propagate_logical_count`).  Attributes and text are plain fields.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import NodeNotFound, XmlStructureError
from repro.xmlstore.index import StructuralIndex
from repro.xmlstore.names import AXML_META_LOCALS, AXML_PREFIX, QName, is_axml_meta_name

_document_counter = itertools.count(1)


class NodeId:
    """A stable, globally unique node identifier.

    The identifier is the pair *(document serial, per-document serial)*;
    its string form, e.g. ``"d3.n17"``, is what update services return to
    callers (paper §3.1).
    """

    __slots__ = ("doc_serial", "node_serial")

    def __init__(self, doc_serial: int, node_serial: int):
        self.doc_serial = doc_serial
        self.node_serial = node_serial

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, NodeId) and self.doc_serial == other.doc_serial
                and self.node_serial == other.node_serial)

    def __hash__(self) -> int:
        return hash((self.doc_serial, self.node_serial))

    def __repr__(self) -> str:
        return f"d{self.doc_serial}.n{self.node_serial}"

    @classmethod
    def parse(cls, text: str) -> "NodeId":
        """Parse the ``"d<doc>.n<node>"`` string form back to a NodeId."""
        try:
            doc_part, node_part = text.split(".")
            if doc_part[0] != "d" or node_part[0] != "n":
                raise ValueError(text)
            return cls(int(doc_part[1:]), int(node_part[1:]))
        except (ValueError, IndexError) as exc:
            raise ValueError(f"malformed node id: {text!r}") from exc


class Node:
    """Base class of all tree nodes.

    A node belongs to exactly one :class:`Document` (which allocates its
    id) and has at most one parent.  Subclasses: :class:`Element` and
    :class:`Text`.
    """

    __slots__ = ("node_id", "parent", "_document")

    def __init__(self, document: "Document"):
        self._document = document
        self.node_id: NodeId = document._allocate_id(self)
        self.parent: Optional[Element] = None

    @property
    def document(self) -> "Document":
        """The owning document."""
        return self._document

    # -- tree navigation ----------------------------------------------------

    def ancestors(self) -> Iterator["Element"]:
        """Yield parent, grandparent, … up to (excluding) the document."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "Node":
        """The topmost node of the subtree containing this node."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def is_attached(self) -> bool:
        """True when this node is reachable from its document's root."""
        return self.root() is self._document.root

    def index_in_parent(self) -> int:
        """Position of this node among its parent's children."""
        if self.parent is None:
            raise XmlStructureError("node has no parent")
        return self.parent.children.index(self)

    # -- mutation -----------------------------------------------------------

    def detach(self) -> "DetachRecord":
        """Remove this node from its parent.

        Returns a :class:`DetachRecord` carrying the parent id and sibling
        anchors, which is exactly the information dynamic compensation
        needs to restore order-preserving position (§3.1).
        """
        if self.parent is None:
            raise XmlStructureError("cannot detach a parentless node")
        parent = self.parent
        siblings = parent.children
        idx = siblings.index(self)  # the one scan: the neighbours are idx ± 1
        record = DetachRecord(self, parent.node_id, idx, siblings[idx - 1].node_id if idx else None,
                              siblings[idx + 1].node_id if idx + 1 < len(siblings) else None)
        del siblings[idx]
        self.parent = None
        _propagate_logical_count(parent, self, -1)
        return record

    # -- introspection -------------------------------------------------------

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here (inclusive)."""
        return 1

    def text_content(self) -> str:
        """Concatenated text of the subtree."""
        return ""

    def clone_into(self, document: "Document", preserve_ids: bool = False) -> "Node":
        """Deep-copy this subtree into *document*; returns the detached copy.

        With ``preserve_ids=True`` the copy keeps the original ids — used
        when logging deleted subtrees for compensation, so re-insertion
        restores identities — re-registered with the target document;
        otherwise it allocates fresh ones in document order, as a parse
        of the same text would.

        The one copier (:meth:`Document.clone_tree` and
        :meth:`Document.restore_from` are this on the root).  It keeps
        its open elements on an explicit stack, so depth is bounded by
        memory, and builds top-down: no cycle is possible, so it skips
        :meth:`Element.append`'s check, and it copies the two logical
        counts instead of re-propagating them per attach — O(n) where
        appends would be O(n · depth), with the same resulting state.
        """
        top: Optional[Node] = None
        pending: List[Tuple[Node, Optional[Element]]] = [(self, None)]
        while pending:
            source, parent = pending.pop()
            if isinstance(source, Element):
                clone: Node = Element(document, source.name, source.attributes)
                clone._logical_count = source._logical_count
                clone._child_count = source._child_count
                pending.extend((child, clone) for child in reversed(source.children))
            else:
                clone = Text(document, source.value)
            if preserve_ids:
                document._adopt_id(clone, source.node_id)
            if parent is None:
                top = clone
            else:
                clone.parent = parent
                parent.children.append(clone)
        return top


class DetachRecord:
    """Everything needed to re-attach a detached node where it was.

    ``before_id``/``after_id`` are the sibling anchors ([16]'s
    insert-before/after semantics); ``index`` is the positional fallback.
    """

    __slots__ = ("node", "parent_id", "index", "before_id", "after_id")

    def __init__(self, node: Node, parent_id: NodeId, index: int,
                 before_id: Optional[NodeId], after_id: Optional[NodeId]):
        self.node = node
        self.parent_id = parent_id
        self.index = index
        self.before_id = before_id
        self.after_id = after_id


class Text(Node):
    """A text node."""

    __slots__ = ("value",)

    def __init__(self, document: "Document", value: str):
        super().__init__(document)
        self.value = value

    def text_content(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"Text({self.value!r}, id={self.node_id!r})"


class Element(Node):
    """An element node with a qualified name, attributes and children.

    ``_logical_count`` is the element count of the *logical* subtree —
    descendant-or-self elements, pruning ``axml`` metadata regions —
    which is exactly how many nodes a descendant walk
    (:func:`repro.xmlstore.path._logical_descendants`) would visit;
    ``_child_count`` is how many element children a child step passes
    (``axml:sc`` expanded: ``path._logical_children``).  Both are kept
    on attach/detach so the index can charge the
    :class:`~repro.xmlstore.path.TraversalMeter` what the walk or loop
    it replaces would.
    """

    __slots__ = ("name", "attributes", "children", "_logical_count", "_child_count")

    def __init__(
        self,
        document: "Document",
        name: Union[str, QName],
        attributes: Optional[Dict[str, str]] = None,
    ):
        super().__init__(document)
        self.name: QName = QName.parse(name) if isinstance(name, str) else name
        # a copy: the caller's mapping (often another element's) stays its own
        self.attributes: Dict[str, str] = dict(attributes) if attributes else {}
        self.children: List[Node] = []
        self._logical_count = 1
        self._child_count = 0
        document.index.add_element(self)

    # -- construction helpers -------------------------------------------------

    def append(self, child: Node) -> Node:
        """Append *child* as the last child and return it."""
        self._check_adoptable(child)
        child.parent = self
        self.children.append(child)
        _propagate_logical_count(self, child, 1)
        return child

    def insert_at(self, index: int, child: Node) -> Node:
        """Insert *child* at *index* (clamped to the valid range)."""
        self._check_adoptable(child)
        index = max(0, min(index, len(self.children)))
        child.parent = self
        self.children.insert(index, child)
        _propagate_logical_count(self, child, 1)
        return child

    def new_element(
        self, name: Union[str, QName], attributes: Optional[Dict[str, str]] = None
    ) -> "Element":
        """Create and append a child element; returns the child."""
        child = Element(self._document, name, attributes)
        self.append(child)
        return child

    def new_text(self, value: str) -> Text:
        """Create and append a text child; returns the child."""
        return self.append(Text(self._document, value))

    def _check_adoptable(self, child: Node) -> None:
        if child.parent is not None:
            raise XmlStructureError(
                f"node {child.node_id!r} already has a parent; detach it first"
            )
        if child._document is not self._document:
            raise XmlStructureError(
                "cannot attach a node from a different document; use clone_into"
            )
        if child is self or child in self.ancestors():
            raise XmlStructureError("attaching a node under itself creates a cycle")

    # -- navigation ------------------------------------------------------------

    def iter(self) -> Iterator[Node]:
        """Depth-first pre-order traversal of the subtree (inclusive)."""
        stack: List[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Element):
                stack.extend(reversed(node.children))

    def iter_elements(self) -> Iterator["Element"]:
        """Like :meth:`iter` but yields only elements."""
        for node in self.iter():
            if isinstance(node, Element):
                yield node

    def child_elements(self) -> List["Element"]:
        """Direct children that are elements, in document order."""
        return [c for c in self.children if isinstance(c, Element)]

    def find_children(self, name: Union[str, QName]) -> List["Element"]:
        """Direct child elements with the given name."""
        qname = QName.parse(name) if isinstance(name, str) else name
        return [c for c in self.child_elements() if c.name == qname]

    def first_child(self, name: Union[str, QName]) -> Optional["Element"]:
        """First direct child element with the given name, or None."""
        return next(iter(self.find_children(name)), None)

    # -- content ----------------------------------------------------------------

    def text_content(self) -> str:
        parts: List[str] = []
        pending: List[Node] = self.children[::-1]
        while pending:
            node = pending.pop()
            if isinstance(node, Text):
                parts.append(node.value)
            else:
                pending.extend(reversed(node.children))
        return "".join(parts)

    def subtree_size(self) -> int:
        size = 0
        pending: List[Node] = [self]
        while pending:
            node = pending.pop()
            size += 1
            if isinstance(node, Element):
                pending.extend(node.children)
        return size

    def __repr__(self) -> str:
        return f"Element(<{self.name.text}>, id={self.node_id!r}, children={len(self.children)})"


class Document:
    """An XML document: id allocator, node index, and a single root element.

    The document keeps an index from :class:`NodeId` to node so that
    compensation can delete "the node having the corresponding ID" in
    O(1) (§3.1).  Detached nodes stay in the index, as in a store that
    logically deletes.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.serial = next(_document_counter)
        self._next_node_serial = itertools.count(1)
        self._index: Dict[NodeId, Node] = {}
        self.index = StructuralIndex()
        self.root: Optional[Element] = None

    # -- id management -----------------------------------------------------------

    def _allocate_id(self, node: Node) -> NodeId:
        node_id = NodeId(self.serial, next(self._next_node_serial))
        self._index[node_id] = node
        return node_id

    def _adopt_id(self, node: Node, node_id: NodeId) -> None:
        """Re-register *node* under a preserved foreign id, which a detached
        node may hold (a compensating re-insert replaces it), a live one not."""
        holder = self._index.get(node_id)
        if holder is not None and holder is not node and holder.is_attached():
            raise XmlStructureError(f"node id {node_id!r} is held by a live node")
        old_id = node.node_id
        del self._index[old_id]
        node.node_id = node_id
        self._index[node_id] = node
        if isinstance(node, Element):
            self.index.rekey_element(node, old_id)

    # -- construction --------------------------------------------------------------

    def create_root(
        self, name: Union[str, QName], attributes: Optional[Dict[str, str]] = None
    ) -> Element:
        """Create the root element.  A document has exactly one root."""
        if self.root is not None:
            raise XmlStructureError("document already has a root element")
        self.root = Element(self, name, attributes)
        return self.root

    def create_element(self, name: Union[str, QName]) -> Element:
        """Create a detached element owned by this document."""
        return Element(self, name)

    # -- lookup -----------------------------------------------------------------------

    def get_node(self, node_id: NodeId) -> Node:
        """Resolve a node id; raises :class:`NodeNotFound` if absent."""
        try:
            return self._index[node_id]
        except KeyError:
            raise NodeNotFound(f"no node with id {node_id!r} in document {self.name!r}")

    def has_node(self, node_id: NodeId) -> bool:
        """True if *node_id* is known (attached or logically deleted)."""
        return node_id in self._index

    def iter(self) -> Iterator[Node]:
        """Traverse all attached nodes in document order."""
        return iter(()) if self.root is None else self.root.iter()

    def iter_elements(self) -> Iterator[Element]:
        """Traverse all attached elements in document order."""
        return iter(()) if self.root is None else self.root.iter_elements()

    def size(self) -> int:
        """Number of attached nodes."""
        return self.root.subtree_size() if self.root is not None else 0

    # -- maintenance ----------------------------------------------------------------------

    def clone(self, preserve_ids: bool = True) -> "Document":
        """Deep-copy the document (used by the snapshot-rollback baseline)."""
        return self.clone_tree(preserve_ids=preserve_ids)

    def clone_tree(
        self, preserve_ids: bool = True, name: Optional[str] = None
    ) -> "Document":
        """Structural copy (replication, resync, snapshots): what a
        serialize→``parse_document`` round trip yields, without the text.
        ``preserve_ids=True`` keeps every node's id (a compensating action
        addressing them must resolve on the replica); False: fresh ids."""
        copy = Document(self.name if name is None else name)
        if self.root is not None:
            copy.root = self.root.clone_into(copy, preserve_ids)
        return copy

    def restore_from(self, snapshot: "Document", preserve_ids: bool = True) -> None:
        """Wholesale tree swap: replace this document's tree with a copy
        of *snapshot*'s (the snapshot-rollback restore path).

        Existing references to this :class:`Document` object stay valid;
        the node map and the structural index are reset in one step.
        """
        self.root = None
        self._index.clear()
        self.index.clear()
        if snapshot.root is not None:
            self.root = snapshot.root.clone_into(self, preserve_ids)

    def __repr__(self) -> str:
        return f"Document({self.name!r}, serial=d{self.serial}, size={self.size()})"


def _propagate_logical_count(parent: Element, child: Node, sign: int) -> None:
    """Account for *child* joining (*sign* 1) or leaving (-1) *parent*.

    Its ``_logical_count`` counts in each ancestor up to and including
    the first ``axml`` metadata element (pruned from its parent's
    subtree); its children in *parent*'s ``_child_count``, and on up
    through transparent ``axml:sc``s (a metadata child is one child and
    no content).  The climb drops the value maps of those ancestors'
    names (their logical text changed) and the child's name's seek entry
    (its parent changed), and keeps the ancestors' (``StructuralIndex.seek``)."""
    values, seeks = parent._document.index._values, parent._document.index._seeks
    if child.__class__ is Text:
        if not values:
            return
        elements = children = 0
    else:
        name, children = child.name, 1
        seeks.pop(name.local, None)
        if name.prefix == AXML_PREFIX:
            if name.local in AXML_META_LOCALS:
                parent._child_count += sign
                seeks.pop(parent.name.local, None)
                return
            if name.local == "sc":  # its logical children, not its metadata
                children = child._child_count - sum(
                    is_axml_meta_name(c.name) for c in child.children if c.__class__ is Element)
        elements, children = sign * child._logical_count, sign * children
    node: Optional[Element] = parent
    while node is not None:
        node._logical_count += elements
        node._child_count += children
        name = node.name
        if values:
            values.pop(name.local, None)
        if children and name.local in seeks:
            seeks[name.local][2] += children
        if name.prefix != AXML_PREFIX or name.local != "sc":
            if name.prefix == AXML_PREFIX and name.local in AXML_META_LOCALS:
                break
            children = 0
        node = node.parent
