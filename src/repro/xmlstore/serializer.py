"""Serialization of node trees back to XML text.

Two renderings are provided:

* :func:`serialize` — compact, canonical-ish output: attributes sorted by
  name, entities escaped, no insignificant whitespace.  Round-trips with
  :func:`repro.xmlstore.parser.parse_document` (parse ∘ serialize is the
  identity on the tree, a property the test suite checks with
  hypothesis).
* :func:`pretty` — indented human-readable output for examples and logs.

``include_ids=True`` adds an internal ``repro:id`` attribute so node ids
survive a serialize/parse round trip; the parser side is handled by
:func:`rebind_ids` / :func:`rebind_element_ids`.

Every call renders the tree as it is at the call; nothing is kept on
the document.  Copies do not come through here
(:meth:`~repro.xmlstore.nodes.Document.clone_tree` is structural), and
the one text that is reused, a log entry's frame, is kept on the entry
(:func:`repro.txn.wal.entry_to_xml`).
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Union

from repro.obs.prof import PROF
from repro.xmlstore.nodes import Document, Element, Node, NodeId, Text

#: Attribute used to persist node ids across serialization.
ID_ATTRIBUTE = "repro:id"


def escape_text(value: str) -> str:
    """Escape character data."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value: str) -> str:
    """Escape an attribute value for double-quoted serialization."""
    return escape_text(value).replace('"', "&quot;")


def _open_tag(element: Element, include_ids: bool) -> str:
    parts: List[str] = [element.name.text]
    if include_ids:
        # Only the id-bearing rendering needs a merged copy; the common
        # path sorts the live attribute dict's keys in place.
        attributes = dict(element.attributes)
        attributes[ID_ATTRIBUTE] = repr(element.node_id)
    else:
        attributes = element.attributes
    for key in sorted(attributes):
        parts.append(f'{key}="{escape_attribute(attributes[key])}"')
    return " ".join(parts)


def _serialize_tree(node: Node, out: List[str], include_ids: bool) -> None:
    """Render *node*'s subtree with an explicit stack (no recursion, so
    document depth is bounded by memory rather than the interpreter's
    recursion limit)."""
    stack: List[Union[Node, str]] = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        if isinstance(item, Text):
            out.append(escape_text(item.value))
            continue
        assert isinstance(item, Element)
        tag = _open_tag(item, include_ids)
        if not item.children:
            out.append(f"<{tag}/>")
            continue
        out.append(f"<{tag}>")
        stack.append(f"</{item.name.text}>")
        stack.extend(reversed(item.children))


def serialize(node: Union[Document, Node], include_ids: bool = False) -> str:
    """Serialize a document or subtree to compact XML text."""
    if isinstance(node, Document):
        if node.root is None:
            return ""
        # What BENCH_E2E and the P3 bench count: full-document renders.
        PROF.incr("serialize_tree_builds")
        node = node.root
    out: List[str] = []
    _serialize_tree(node, out, include_ids)
    return "".join(out)


def _pretty_node(node: Node, out: List[str], depth: int) -> None:
    pad = "  " * depth
    if isinstance(node, Text):
        out.append(f"{pad}{escape_text(node.value)}")
        return
    assert isinstance(node, Element)
    tag = _open_tag(node, include_ids=False)
    if not node.children:
        out.append(f"{pad}<{tag}/>")
        return
    if len(node.children) == 1 and isinstance(node.children[0], Text):
        text = escape_text(node.children[0].value)
        out.append(f"{pad}<{tag}>{text}</{node.name.text}>")
        return
    out.append(f"{pad}<{tag}>")
    for child in node.children:
        _pretty_node(child, out, depth + 1)
    out.append(f"{pad}</{node.name.text}>")


def pretty(node: Union[Document, Node]) -> str:
    """Serialize with two-space indentation for human consumption."""
    if isinstance(node, Document):
        if node.root is None:
            return ""
        node = node.root
    out: List[str] = []
    _pretty_node(node, out, 0)
    return "\n".join(out)


def rebind_ids(document: Document) -> int:
    """Re-adopt persisted ``repro:id`` attributes as real node ids.

    Returns the number of elements whose id was rebound.  Elements without
    the attribute keep their freshly allocated ids.
    """
    if document.root is None:
        return 0
    return rebind_element_ids(document.root, document)


def rebind_element_ids(element: Element, document: Document) -> int:
    """Re-adopt persisted ``repro:id`` attributes within one subtree.

    Fragment-level counterpart of :func:`rebind_ids`, used when a
    compensating insert restores a logged snapshot: the restored nodes
    take back their original identities, so earlier compensations that
    reference them by id still resolve.
    """
    rebound = 0
    for el in list(element.iter_elements()):
        raw = el.attributes.pop(ID_ATTRIBUTE, None)
        if raw is None:
            continue
        document._adopt_id(el, NodeId.parse(raw))
        rebound += 1
    return rebound


def canonical(node: Union[Document, Node]) -> str:
    """Canonical text form used for structural equality in tests.

    Identical trees (same names, attributes, text, order — ignoring node
    ids) produce identical canonical strings.
    """
    return serialize(node, include_ids=False)


def canonical_digest(node: Union[Document, Node]) -> str:
    """SHA-256 hex digest of the canonical text.

    Digest equality *implies* byte-equal canonical text (same order,
    names, attributes, text), so equal digests prove convergence; the
    converse does not hold for order-insensitive comparisons, which must
    fall back to their own canonical form on mismatch (see
    ``chaos/oracle.py``).
    """
    return hashlib.sha256(canonical(node).encode("utf-8")).hexdigest()
