"""From-scratch XML repository substrate.

This package implements the XML storage layer the paper's AXML documents
live in: a mutable ordered tree with stable node identifiers
(:mod:`repro.xmlstore.nodes`), a hand-written parser
(:mod:`repro.xmlstore.parser`), serialization
(:mod:`repro.xmlstore.serializer`) and a path engine
(:mod:`repro.xmlstore.path`).

Stable node ids matter transactionally: the paper (§3.1) assumes an AXML
insert "returns the (unique) ID of the inserted node" so that its
compensation is "a delete operation to delete the node having the
corresponding ID".
"""

from repro.xmlstore.names import QName, AXML_NS, AXML_PREFIX
from repro.xmlstore.nodes import Document, Element, Text, Node, NodeId
from repro.xmlstore.parser import parse_document, parse_fragment
from repro.xmlstore.serializer import serialize, pretty, canonical, canonical_digest
from repro.xmlstore.path import PathExpr, parse_path

__all__ = [
    "QName",
    "AXML_NS",
    "AXML_PREFIX",
    "Document",
    "Element",
    "Text",
    "Node",
    "NodeId",
    "parse_document",
    "parse_fragment",
    "serialize",
    "pretty",
    "canonical",
    "canonical_digest",
    "PathExpr",
    "parse_path",
]
