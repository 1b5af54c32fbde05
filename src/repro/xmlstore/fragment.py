"""A ``<data>`` payload as a value: an XML fragment that belongs to no document.

An ``<action>``'s ``<data>`` children are what an insert or replace puts
into a document (§3.1).  Until then each is a :class:`Fragment`: a tree
of :class:`FragmentNode`s (what the parser read from a submitted action,
or what a service template bound) or a text (a compensation's logged
snapshot, a payload read back from disk).  Its text is rendered only
when a byte edge asks for it (a WAL frame, a replication key,
``UpdateAction.to_xml``), and a text is parsed only into the document
that receives it (:meth:`Fragment.materialize`), which is the one place
a fragment's nodes get ids.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.xmlstore.names import QName
from repro.xmlstore.nodes import Document, Element
from repro.xmlstore.serializer import serialize


class FragmentNode:
    """An element of a fragment tree: name, attributes and children.

    Children are nodes and text runs (plain strings).  It is also the
    parser's builder (``new_element``/``new_text``): adjacent runs join
    into one, as the text they serialize to parses back."""

    __slots__ = ("name", "attributes", "children")

    def __init__(self, name: Union[str, QName], attributes: Dict[str, str]):
        self.name = QName.parse(name) if isinstance(name, str) else name
        self.attributes = attributes
        self.children: List[Union["FragmentNode", str]] = []

    def new_element(self, name: Union[str, QName], attributes: Dict[str, str]
                    ) -> "FragmentNode":
        child = FragmentNode(name, attributes)
        self.children.append(child)
        return child

    def new_text(self, run: str) -> None:
        if self.children and self.children[-1].__class__ is str:
            self.children[-1] += run
        else:
            self.children.append(run)


class Fragment:
    """One ``<data>`` child as a value: a tree (*root*) or a *text*.

    Two fragments are equal when their texts are."""

    __slots__ = ("root", "_text")

    def __init__(self, root: Optional[FragmentNode] = None, text: Optional[str] = None):
        self.root = root
        self._text = text

    @property
    def text(self) -> str:
        """The fragment as :func:`~repro.xmlstore.serializer.serialize`
        writes it, rendered from the tree on first read."""
        if self._text is None:
            self._text = serialize(self.root)
        return self._text

    def materialize(self, document: Document) -> List[Element]:
        """New, detached nodes of *document*, with the ids a
        ``parse_fragment`` of the text hands out there: a text is parsed
        into *document*; a tree is built after skipping the serial that
        parser's holder element takes, in document order."""
        if self.root is None:
            from repro.xmlstore.parser import parse_fragment

            return parse_fragment(self._text, document)
        next(document._next_node_serial)
        return [_build(self.root, document)]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Fragment) and self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)

    def __repr__(self) -> str:
        return f"Fragment({self.text!r})"


def _build(root: FragmentNode, document: Document) -> Element:
    """*root*'s tree as detached nodes of *document*, created in document
    order; each element joins its parent once its own subtree is
    complete, so an attach never climbs past one parent."""
    top = Element(document, root.name, root.attributes)
    stack = [(top, iter(root.children))]
    while stack:
        element, children = stack[-1]
        for child in children:
            if child.__class__ is str:
                element.new_text(child)
            else:
                stack.append((Element(document, child.name, child.attributes),
                              iter(child.children)))
                break
        else:
            stack.pop()
            if stack:
                stack[-1][0].append(element)
    return top
