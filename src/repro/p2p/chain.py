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

from typing import Dict, List, Optional, Tuple

from repro.errors import P2PError


class PeerChain:
    """The active-peer list of one transaction, as two maps keyed by peer id.

    The protocol never puts a peer in the chain twice, so a view holds
    no node objects and no back-pointers: a dropped view is freed by
    reference counting."""

    __slots__ = ("_root", "_up", "_down")

    def __init__(self, root_peer: str, root_super: bool = False):
        self._root = root_peer
        #: peer id → (parent id, ``None`` at the root; super-peer flag).
        self._up: Dict[str, Tuple[Optional[str], bool]] = {root_peer: (None, root_super)}
        #: peer id → its children's ids in invocation order (same keys).
        self._down: Dict[str, Tuple[str, ...]] = {root_peer: ()}

    # -- construction -----------------------------------------------------

    def add_invocation(self, parent_peer: str, child_peer: str, child_super: bool) -> None:
        """Record that *parent_peer* invoked a service on *child_peer*."""
        if parent_peer not in self._up:
            raise P2PError(f"peer {parent_peer!r} is not in the chain")
        if child_peer in self._up:
            raise P2PError(f"peer {child_peer!r} is already in the chain")
        self._up[child_peer] = (parent_peer, child_super)
        self._down[child_peer] = ()
        self._down[parent_peer] += (child_peer,)

    # -- lookup --------------------------------------------------------------

    def contains(self, peer_id: str) -> bool:
        return peer_id in self._up

    def __len__(self) -> int:
        """Peers in the chain (each appears once)."""
        return len(self._up)

    def parent_of(self, peer_id: str) -> Optional[str]:
        entry = self._up.get(peer_id)
        return None if entry is None else entry[0]

    def children_of(self, peer_id: str) -> List[str]:
        return list(self._down.get(peer_id, ()))

    def siblings_of(self, peer_id: str) -> List[str]:
        """Other children of the same parent (§3.3d's data-passing peers)."""
        parent = self.parent_of(peer_id)
        if parent is None:
            return []
        return [c for c in self._down[parent] if c != peer_id]

    def descendants_of(self, peer_id: str) -> List[str]:
        return self._walk(peer_id)[1:] if peer_id in self._up else []

    def ancestors_of(self, peer_id: str) -> List[str]:
        """Ancestors nearest-first — who may take results meant for a
        dead *peer_id*, in the fallback order of §3.3(b): "AP6 can try
        the next closest peer (AP1) or the closest super peer … in the
        list" (the closest super peer is by construction one of them)."""
        out: List[str] = []
        current = self.parent_of(peer_id)
        while current is not None:
            out.append(current)
            current = self._up[current][0]
        return out

    def _walk(self, peer_id: str) -> List[str]:
        """*peer_id* and its descendants in pre-order, on an explicit
        stack: :meth:`from_text` accepts any nesting depth, so depth is
        not ours to bound."""
        down = self._down
        out: List[str] = []
        stack = [peer_id]
        while stack:
            peer = stack.pop()
            out.append(peer)
            stack.extend(reversed(down[peer]))
        return out

    # -- extended relations (the conclusion's future-work chaining) ---------

    def uncles_of(self, peer_id: str) -> List[str]:
        """Siblings of the peer's parent.

        The paper's conclusion: "Currently, the 'chaining' mechanism is
        restricted to the parent, children and sibling peers.  We are
        exploring the feasibility of extending the same to uncles,
        cousins, etc." — implemented here as an optional scope.
        """
        parent = self.parent_of(peer_id)
        return [] if parent is None else self.siblings_of(parent)

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
        self, silent_sibling: str, informer: str, scope: str
    ) -> List[str]:
        """§3.3(d): who the sibling *informer* tells when another
        sibling's stream went silent — that peer's relatives."""
        return [
            relative
            for relative in self.relatives_of(silent_sibling, scope)
            if relative != informer
        ]

    def peers(self) -> List[str]:
        return self._walk(self._root)

    # -- failover rewrite (§3.3 around a dead primary) ----------------------

    def substitute(self, old_peer: str, new_peer: str, super_peer: bool) -> bool:
        """Rewrite the chain around a dead peer: *new_peer* takes over
        *old_peer*'s position (parent edge and all child edges), so the
        tree keeps routing for every descendant of the replaced node —
        including interior §3.3 nodes, not just leaves.

        If *new_peer* already participates in the transaction, the dead
        node is spliced out instead and its children are grafted under
        the existing node.  Returns False when *old_peer* is not in the
        chain (nothing to rewrite) or is the root with *new_peer*
        present (the origin cannot be spliced out).
        """
        up, down = self._up, self._down
        if old_peer not in up or old_peer == new_peer:
            return False
        parent = up[old_peer][0]
        children = down[old_peer]
        if new_peer not in up:
            del up[old_peer], down[old_peer]
            up[new_peer] = (parent, super_peer)
            down[new_peer] = children
            if parent is None:
                self._root = new_peer
            else:
                down[parent] = tuple(new_peer if c == old_peer else c for c in down[parent])
        elif parent is None:
            return False
        elif old_peer in self.ancestors_of(new_peer):
            # Pinned, not endorsed: grafting here would make *new_peer*
            # its own ancestor, and the view has always dropped the dead
            # peer's whole subtree instead, *new_peer* included (ROADMAP
            # 1(b)).  Keeping it hides a duplicated effect in shard_chaos.
            down[parent] = tuple(c for c in down[parent] if c != old_peer)
            for peer in self._walk(old_peer):
                del up[peer], down[peer]
            return True
        else:
            del up[old_peer], down[old_peer]
            down[parent] = tuple(c for c in down[parent] if c != old_peer)
            down[new_peer] += children
        for child in children:
            up[child] = (new_peer, up[child][1])
        return True

    # -- the paper's bracket notation -----------------------------------------

    def to_text(self) -> str:
        up, down = self._up, self._down
        parts = ["["]
        # (text written before the peer, the peer or None for text alone)
        stack: List[Tuple[str, Optional[str]]] = [("", self._root)]
        while stack:
            text, peer = stack.pop()
            parts.append(text)
            if peer is None:
                continue
            parts.append(f"{peer}*" if up[peer][1] else peer)
            children = down[peer]
            if len(children) == 1:
                stack.append((" -> ", children[0]))
            elif children:
                stack.append(("]", None))
                stack.extend(("] || [", child) for child in reversed(children[1:]))
                stack.append((" -> [", children[0]))
        parts.append("]")
        return "".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "PeerChain":
        return _ChainParser(text).parse()

    def merge(self, other: "PeerChain") -> int:
        """Fold *other*'s edges into this chain; returns edges added.

        Used when an invocation returns: the callee's view may contain
        deeper invocations this peer has not seen.  Edges whose parent is
        unknown here are skipped (they will arrive once their own parent
        edge does).
        """
        added = 0
        up = self._up
        # Breadth-first so parents are inserted before their children:
        # the loop also visits what it appends.
        pending = [other._root]
        for parent in pending:
            for child in other._down[parent]:
                pending.append(child)
                if child in up or parent not in up:
                    continue
                self.add_invocation(parent, child, other._up[child][1])
                added += 1
        return added

    def copy(self) -> "PeerChain":
        """Independent copy: the snapshot an invocation carries.  The
        child tuples are immutable, so two shallow map copies suffice
        (pinned against the ``from_text``-of-``to_text`` round trip in
        ``tests/test_p2p_chain.py``)."""
        twin = PeerChain.__new__(PeerChain)
        twin._root, twin._up, twin._down = self._root, self._up.copy(), self._down.copy()
        return twin

    def __repr__(self) -> str:
        return f"PeerChain({self.to_text()})"


class _ChainParser:
    """Parser for the bracket notation::

        chain := "[" node "]"
        node  := label ( "->" ( node | "[" node "]" ( "||" "[" node "]" )* ) )?

    Open brackets live on an explicit stack (no recursion): the text
    comes from another peer, and a hostile nesting depth must end in a
    :class:`P2PError` or a chain, never a ``RecursionError``.  So must a
    label that appears twice.
    """

    def __init__(self, text: str):
        self.text = text.strip()
        self.pos = 0

    def parse(self) -> PeerChain:
        self._expect("[")
        chain: Optional[PeerChain] = None
        #: One entry per open bracket: the peer its content hangs under.
        open_brackets: List[Optional[str]] = [None]
        parent: Optional[str] = None
        while open_brackets:
            label = self._parse_label()
            peer, super_peer = label.rstrip("*"), label.endswith("*")
            if parent is None:
                chain = PeerChain(peer, super_peer)
            else:
                chain.add_invocation(parent, peer, super_peer)
            self._skip_ws()
            if self.text.startswith("->", self.pos):
                self.pos += 2
                self._skip_ws()
                parent = peer
                if self.text.startswith("[", self.pos):
                    self.pos += 1
                    open_brackets.append(peer)
                continue
            # A childless peer ends its bracket — and every enclosing
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
        return chain

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
