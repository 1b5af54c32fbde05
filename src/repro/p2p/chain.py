"""Active-peer chains (§3.3).

"A more efficient solution can be achieved if AP3 passes the list of
active peers [AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]] also while
invoking the service S6 of AP6."

The chain is the invocation tree of one transaction, piggybacked on
every invocation so that *any* peer detecting a disconnection can route
around it: children find their grandparent or the closest super peer,
parents find the orphaned descendants, siblings find everybody.  It
travels as a :meth:`PeerChain.copy` snapshot (``InvokeRequest.chain``
out, ``Outcome.chain`` back).  The paper's bracket notation is for the
edges (``repr``, E10's bytes): it round-trips through
:meth:`PeerChain.to_text` / :meth:`PeerChain.from_text` (we write ``->``
for the arrow); super peers carry the paper's ``*`` suffix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.errors import P2PError


@dataclass
class ChainNode:
    """One peer in the invocation tree."""

    peer_id: str
    super_peer: bool = False
    children: List["ChainNode"] = field(default_factory=list)
    parent: Optional["ChainNode"] = None

    def add_child(self, peer_id: str, super_peer: bool = False) -> "ChainNode":
        child = ChainNode(peer_id, super_peer, parent=self)
        self.children.append(child)
        return child

    def iter(self) -> Iterator["ChainNode"]:
        """Pre-order walk on an explicit stack: :meth:`PeerChain.from_text`
        accepts any nesting depth, so depth is not ours to bound."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.children:
                stack.extend(reversed(node.children))

    @property
    def label(self) -> str:
        return f"{self.peer_id}*" if self.super_peer else self.peer_id


class PeerChain:
    """The active-peer list of one transaction."""

    def __init__(self, root_peer: str, root_super: bool = False):
        self.root = ChainNode(root_peer, root_super)
        #: peer id → the node a pre-order walk meets first.
        self._index: Dict[str, ChainNode] = {root_peer: self.root}

    def _reindex(self) -> None:
        """Rebuild the index in place from a walk (after a rewrite)."""
        self._index.clear()
        for node in self.root.iter():
            self._index.setdefault(node.peer_id, node)

    # -- construction -----------------------------------------------------

    def add_invocation(
        self, parent_peer: str, child_peer: str, child_super: bool = False
    ) -> ChainNode:
        """Record that *parent_peer* invoked a service on *child_peer*."""
        parent = self.find(parent_peer)
        if parent is None:
            raise P2PError(f"peer {parent_peer!r} is not in the chain")
        child = parent.add_child(child_peer, child_super)
        if child_peer in self._index:
            self._reindex()  # a repeated peer: the walk says which comes first
        else:
            self._index[child_peer] = child
        return child

    # -- lookup --------------------------------------------------------------

    def find(self, peer_id: str) -> Optional[ChainNode]:
        return self._index.get(peer_id)

    def contains(self, peer_id: str) -> bool:
        return peer_id in self._index

    def __len__(self) -> int:
        """Distinct peers in the chain (the protocol never repeats one)."""
        return len(self._index)

    def parent_of(self, peer_id: str) -> Optional[str]:
        node = self.find(peer_id)
        if node is None or node.parent is None:
            return None
        return node.parent.peer_id

    def children_of(self, peer_id: str) -> List[str]:
        node = self.find(peer_id)
        if node is None:
            return []
        return [c.peer_id for c in node.children]

    def siblings_of(self, peer_id: str) -> List[str]:
        """Other children of the same parent (§3.3d's data-passing peers)."""
        node = self.find(peer_id)
        if node is None or node.parent is None:
            return []
        return [c.peer_id for c in node.parent.children if c.peer_id != peer_id]

    def descendants_of(self, peer_id: str) -> List[str]:
        node = self.find(peer_id)
        if node is None:
            return []
        return [n.peer_id for n in node.iter() if n.peer_id != peer_id]

    def ancestors_of(self, peer_id: str) -> List[str]:
        """Ancestors nearest-first — who may take results meant for a
        dead *peer_id*, in the fallback order of §3.3(b): "AP6 can try
        the next closest peer (AP1) or the closest super peer … in the
        list" (the closest super peer is by construction one of them)."""
        node = self.find(peer_id)
        out: List[str] = []
        if node is None:
            return out
        current = node.parent
        while current is not None:
            out.append(current.peer_id)
            current = current.parent
        return out

    # -- extended relations (the conclusion's future-work chaining) ---------

    def uncles_of(self, peer_id: str) -> List[str]:
        """Siblings of the peer's parent.

        The paper's conclusion: "Currently, the 'chaining' mechanism is
        restricted to the parent, children and sibling peers.  We are
        exploring the feasibility of extending the same to uncles,
        cousins, etc." — implemented here as an optional scope.
        """
        node = self.find(peer_id)
        if node is None or node.parent is None:
            return []
        return self.siblings_of(node.parent.peer_id)

    def cousins_of(self, peer_id: str) -> List[str]:
        """Children of the peer's uncles."""
        out: List[str] = []
        for uncle in self.uncles_of(peer_id):
            out.extend(self.children_of(uncle))
        return out

    def relatives_of(self, peer_id: str, scope: str = "immediate") -> List[str]:
        """The peers the disconnection of *peer_id* should be reported to.

        ``immediate`` — parent, children, siblings (the paper's §3.3
        protocol); ``extended`` — additionally the grandparent, uncles
        and cousins (the conclusion's extension).  The dead peer itself
        is never included; duplicates are removed preserving order.
        """
        if scope not in ("immediate", "extended"):
            raise P2PError(f"unknown chain scope {scope!r}")
        candidates: List[str] = []
        parent = self.parent_of(peer_id)
        if parent:
            candidates.append(parent)
        candidates.extend(self.children_of(peer_id))
        candidates.extend(self.siblings_of(peer_id))
        if scope == "extended":
            grandparent = self.parent_of(parent) if parent else None
            if grandparent:
                candidates.append(grandparent)
            candidates.extend(self.uncles_of(peer_id))
            candidates.extend(self.cousins_of(peer_id))
        seen = set()
        out: List[str] = []
        for candidate in candidates:
            if candidate != peer_id and candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
        return out

    def orphan_notice_targets(
        self, dead_child: str, informer: str, scope: str = "immediate"
    ) -> List[str]:
        """§3.3(c): who the parent *informer* tells about its dead child
        — the orphaned descendants, plus (``extended`` scope, the
        conclusion's extension) the dead peer's wider family so parallel
        branches stop wasting effort sooner."""
        targets = self.descendants_of(dead_child)
        if scope == "extended":
            for relative in self.relatives_of(dead_child, "extended"):
                if relative not in targets and relative != informer:
                    targets.append(relative)
        return targets

    def sibling_notice_targets(
        self, silent_sibling: str, informer: str, scope: str = "immediate"
    ) -> List[str]:
        """§3.3(d): who the sibling *informer* tells when another
        sibling's stream went silent — that peer's relatives."""
        return [
            relative
            for relative in self.relatives_of(silent_sibling, scope)
            if relative != informer
        ]

    def peers(self) -> List[str]:
        return [n.peer_id for n in self.root.iter()]

    # -- failover rewrite (§3.3 around a dead primary) ----------------------

    def substitute(
        self, old_peer: str, new_peer: str, super_peer: bool = False
    ) -> bool:
        """Rewrite the chain around a dead peer: *new_peer* takes over
        *old_peer*'s position (parent edge and all child edges), so the
        tree keeps routing for every descendant of the replaced node —
        including interior §3.3 nodes, not just leaves.

        If *new_peer* already participates in the transaction, the dead
        node is spliced out instead and its children are grafted under
        the existing node.  Returns False when *old_peer* is not in the
        chain (nothing to rewrite).
        """
        node = self.find(old_peer)
        if node is None or old_peer == new_peer:
            return False
        existing = self.find(new_peer)
        if existing is None:
            node.peer_id = new_peer
            node.super_peer = super_peer
        elif node.parent is None:
            # The root (origin) cannot be spliced out; leave it alone.
            return False
        else:
            for child in node.children:
                child.parent = existing
                existing.children.append(child)
            node.children = []
            node.parent.children.remove(node)
            node.parent = None
        self._reindex()
        return True

    # -- the paper's bracket notation -----------------------------------------

    def to_text(self) -> str:
        parts = ["["]
        # Nodes still to write, interleaved with the literal separators
        # that go between them.
        stack: List[object] = [self.root]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            parts.append(item.label)
            children = item.children
            if len(children) == 1:
                parts.append(" -> ")
                stack.append(children[0])
            elif children:
                parts.append(" -> [")
                stack.append("]")
                for child in reversed(children[1:]):
                    stack.append(child)
                    stack.append("] || [")
                stack.append(children[0])
        parts.append("]")
        return "".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "PeerChain":
        chain = cls.__new__(cls)
        chain.root = _ChainParser(text).parse()
        chain._index = {}
        chain._reindex()
        return chain

    def merge(self, other: "PeerChain") -> int:
        """Fold *other*'s edges into this chain; returns edges added.

        Used when an invocation returns: the callee's view may contain
        deeper invocations this peer has not seen.  Edges whose parent is
        unknown here are skipped (they will arrive once their own parent
        edge does).
        """
        added = 0
        index = self._index
        # Breadth-first so parents are inserted before their children:
        # the loop also visits what it appends.
        pending = [other.root]
        for node in pending:
            for child in node.children:
                pending.append(child)
                if child.peer_id in index or node.peer_id not in index:
                    continue
                self.add_invocation(node.peer_id, child.peer_id, child.super_peer)
                added += 1
        return added

    def copy(self) -> "PeerChain":
        """Independent deep copy: the snapshot an invocation carries.

        A direct structural copy of the node tree — equivalent to (and
        pinned against, in ``tests/test_p2p_chain.py``) the
        ``from_text``-of-``to_text`` round trip.  The index is copied
        with it: a twin is indexed where its original is.
        """
        chain = PeerChain(self.root.peer_id, self.root.super_peer)
        index, twin_index = self._index, chain._index
        pending = [(self.root, chain.root)]
        while pending:
            node, twin = pending.pop()
            for child in node.children:
                child_twin = twin.add_child(child.peer_id, child.super_peer)
                if index[child.peer_id] is child:
                    twin_index[child.peer_id] = child_twin
                pending.append((child, child_twin))
        return chain

    def __repr__(self) -> str:
        return f"PeerChain({self.to_text()})"


class _ChainParser:
    """Parser for the bracket notation::

        chain := "[" node "]"
        node  := label ( "->" ( node | "[" node "]" ( "||" "[" node "]" )* ) )?

    Open brackets live on an explicit stack (no recursion): the text
    comes from another peer, and a hostile nesting depth must end in a
    :class:`P2PError` or a chain, never a ``RecursionError``.
    """

    def __init__(self, text: str):
        self.text = text.strip()
        self.pos = 0

    def parse(self) -> ChainNode:
        self._expect("[")
        root: Optional[ChainNode] = None
        #: One entry per open bracket: the node its content hangs under.
        open_brackets: List[Optional[ChainNode]] = [None]
        parent: Optional[ChainNode] = None
        while open_brackets:
            label = self._parse_label()
            node = ChainNode(label.rstrip("*"), label.endswith("*"), parent=parent)
            if parent is None:
                root = node
            else:
                parent.children.append(node)
            self._skip_ws()
            if self.text.startswith("->", self.pos):
                self.pos += 2
                self._skip_ws()
                parent = node
                if self.text.startswith("[", self.pos):
                    self.pos += 1
                    open_brackets.append(node)
                continue
            # A childless node ends its bracket — and every enclosing
            # bracket whose group it was the last member of.
            while open_brackets:
                self._expect("]")
                parent = open_brackets.pop()
                self._skip_ws()
                if parent is not None and self.text.startswith("||", self.pos):
                    self.pos += 2
                    self._expect("[")
                    open_brackets.append(parent)
                    break
        if self.pos != len(self.text):
            raise P2PError(f"trailing characters in chain text: {self.text!r}")
        return root

    def _parse_label(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_-*."
        ):
            self.pos += 1
        if start == self.pos:
            raise P2PError(
                f"expected a peer label at position {self.pos} in {self.text!r}"
            )
        return self.text[start : self.pos]

    def _expect(self, token: str) -> None:
        self._skip_ws()
        if not self.text.startswith(token, self.pos):
            raise P2PError(
                f"expected {token!r} at position {self.pos} in {self.text!r}"
            )
        self.pos += len(token)

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1
