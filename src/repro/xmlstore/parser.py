"""A from-scratch XML parser producing :mod:`repro.xmlstore.nodes` trees.

The parser is a hand-written single-pass scanner over string offsets:
character data is delimited with ``str.find("<")``, names, whitespace
and attributes are matched by precompiled regexes, and open elements sit
on an explicit stack — so cost is per token, not per character, and
depth is bounded by memory, not by the interpreter's recursion limit.
Line and column are derived from the offset only when an error is
raised.  Node ids are allocated in input order (an element once its
start tag's attributes are read, a text node where its run ends), which
logged ids and archived transcripts rely on.

It supports the XML subset the paper's documents use:

* the ``<?xml … ?>`` prolog (ignored),
* elements with prefixed names and single/double-quoted attributes,
* character data with the five predefined entities plus ``&#NNN;`` /
  ``&#xHHH;`` character references,
* comments ``<!-- … -->`` and CDATA sections,
* processing instructions (skipped).

It does *not* implement DTDs — the paper never uses them and they would
add no transactional behaviour.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.errors import XmlParseError
from repro.xmlstore.names import QName
from repro.xmlstore.nodes import Document, Element, Node, Text

_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

_SPACE = r"[ \t\r\n]*"
#: A name token is the run of these characters (up to a delimiter or the
#: end of input) ...
_NAME_CHAR = r"""[^ \t\r\n=/><'"]"""
#: ... and is valid when it is in the ASCII subset of the XML Name
#: production (as :func:`~repro.xmlstore.names.is_valid_name`) with
#: something on both sides of its first colon (as
#: :meth:`~repro.xmlstore.names.QName.parse`).
_NAME = r"[A-Za-z_][A-Za-z0-9_.\-]*(?::[A-Za-z0-9_:.\-]+)?"

_skip_space = re.compile(_SPACE).match
_name_run = re.compile(f"{_NAME_CHAR}*").match
_is_name = re.compile(_NAME).fullmatch
_tag_open = re.compile(f"<({_NAME})(?!{_NAME_CHAR})").match
_attribute = re.compile(f"""{_SPACE}({_NAME}){_SPACE}={_SPACE}(?:"([^"]*)"|'([^']*)')""").match
_end_tag = re.compile(f"</({_NAME_CHAR}*){_SPACE}").match
_reference = re.compile("&([^;]*)(;?)")


def _error(text: str, pos: int, message: str) -> XmlParseError:
    """*message* located at offset *pos*, as 1-based line and column."""
    return XmlParseError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _expect(text: str, pos: int, token: str) -> int:
    if not text.startswith(token, pos):
        raise _error(text, pos, f"expected {token!r}, found {text[pos : pos + len(token)]!r}")
    return pos + len(token)


def _find(text: str, pos: int, token: str) -> int:
    end = text.find(token, pos)
    if end < 0:
        raise _error(text, pos, f"unterminated construct: expected {token!r}")
    return end


def _decode_entities(raw: str, text: str, pos: int) -> str:
    """Expand entity and character references in *raw*, reporting a bad
    one at offset *pos* of *text*.

    Runs holding only the five predefined entities (what the serializer
    writes) expand by string replacement: a reference produces no
    ``&``, so once the other four are replaced, every ``&`` left must
    start ``&amp;``.  Anything else takes the reference-by-reference
    path, which reports what is wrong."""
    fast = raw.replace("&lt;", "<").replace("&gt;", ">")
    fast = fast.replace("&quot;", '"').replace("&apos;", "'")
    if fast.count("&") == fast.count("&amp;"):
        return fast.replace("&amp;", "&")

    parts: List[str] = []
    end = 0
    for match in _reference.finditer(raw):
        name, terminated = match.groups()
        parts.append(raw[end : match.start()])
        end = match.end()
        if not terminated:
            raise _error(text, pos, "unterminated entity reference")
        if name in _ENTITIES:
            parts.append(_ENTITIES[name])
            continue
        if not name.startswith("#"):
            raise _error(text, pos, f"unknown entity &{name};")
        try:
            code = int(name[2:], 16) if name[1:2] in ("x", "X") else int(name[1:])
            if 0xD800 <= code <= 0xDFFF:  # a lone surrogate cannot be encoded
                raise ValueError(code)
            parts.append(chr(code))
        except (ValueError, OverflowError):
            raise _error(text, pos, f"bad character reference &{name};")
    parts.append(raw[end:])
    return "".join(parts)


def _invalid_name(text: str, pos: int) -> XmlParseError:
    run = _name_run(text, pos)
    return _error(text, run.end(), f"invalid XML name {run.group()!r}")


def _attribute_error(text: str, pos: int) -> XmlParseError:
    """Why ``_attribute`` found no ``name = "value"`` at offset *pos*."""
    run = _name_run(text, pos)
    if not _is_name(run.group()):
        return _invalid_name(text, pos)
    pos = _skip_space(text, run.end()).end()
    if not text.startswith("=", pos):
        return _error(text, pos, f"expected '=', found {text[pos : pos + 1]!r}")
    pos = _skip_space(text, pos + 1).end()
    quote = text[pos : pos + 1]
    if quote not in ("'", '"'):
        return _error(text, pos, "attribute value must be quoted")
    return _error(text, pos + 1, f"unterminated construct: expected {quote!r}")


def _read_start_tag(text: str, pos: int) -> Tuple[str, Dict[str, str], int]:
    """Read the name and attributes of the start tag at offset *pos*;
    returns them and the offset of the tag's ``>`` or ``/>``."""
    match = _tag_open(text, pos)
    if match is None:
        raise _invalid_name(text, pos + 1)
    name = match.group(1)
    pos = match.end()
    attributes: Dict[str, str] = {}
    match = _attribute(text, pos)
    while match is not None:
        key, value, single_quoted = match.groups()
        pos = match.end()
        if key in attributes:
            raise _error(text, pos, f"duplicate attribute {key!r}")
        if value is None:
            value = single_quoted
        attributes[key] = _decode_entities(value, text, pos) if "&" in value else value
        match = _attribute(text, pos)
    pos = _skip_space(text, pos).end()
    if text[pos : pos + 1] not in ("", ">", "/", "?"):
        raise _attribute_error(text, pos)
    return name, attributes, pos


def _skip_misc(text: str, pos: int) -> int:
    """Skip whitespace, comments, PIs and the prolog between elements."""
    while True:
        pos = _skip_space(text, pos).end()
        if text.startswith("<!--", pos):
            pos = _find(text, pos + 4, "-->") + 3
        elif text.startswith("<?", pos):
            pos = _find(text, pos + 2, "?>") + 2
        elif text.startswith("<!DOCTYPE", pos):
            # Tolerate (and skip) a simple internal-subset-free DOCTYPE.
            pos = _find(text, pos, ">") + 1
        else:
            return pos


def _parse_element(text: str, pos: int, document: Document, parent) -> int:
    """Parse the element at offset *pos* — start tag, content, end tag —
    under *parent* (an element, a stand-in :func:`scan_action` reads
    through, or None: as the document root); returns the offset after
    it."""
    _expect(text, pos, "<")
    open_elements: List[Element] = []  # innermost last
    while True:
        name, attributes, pos = _read_start_tag(text, pos)
        if parent is None:
            element = document.create_root(name, attributes)
        else:
            element = parent.new_element(name, attributes)
        if text.startswith("/>", pos):
            pos += 2
            if not open_elements:
                return pos
        else:
            pos = _expect(text, pos, ">")
            open_elements.append(element)
            parent = element
        while True:  # content of *parent*, up to the next start tag
            lt = text.find("<", pos)
            if lt < 0:
                raise _error(
                    text, len(text), f"unexpected end of input inside <{parent.name.text}>"
                )
            if lt > pos:
                run = text[pos:lt]
                if "&" in run:
                    run = _decode_entities(run, text, lt)
                run = run.strip()
                if run:
                    parent.new_text(run)
            if text.startswith("</", lt):
                match = _end_tag(text, lt)
                closing, name = match.group(1), parent.name.text
                if closing != name:
                    if not _is_name(closing):
                        raise _invalid_name(text, lt + 2)
                    raise _error(
                        text, match.end(1), f"mismatched closing tag </{closing}> for <{name}>"
                    )
                pos = _expect(text, match.end(), ">")
                open_elements.pop()
                if not open_elements:
                    return pos
                parent = open_elements[-1]
            elif text.startswith("<!--", lt):
                pos = _find(text, lt + 4, "-->") + 3
            elif text.startswith("<![CDATA[", lt):
                # CDATA content is literal: no entity decoding.
                end = _find(text, lt + 9, "]]>")
                run = text[lt + 9 : end].strip()
                if run:
                    parent.new_text(run)
                pos = end + 3
            elif text.startswith("<?", lt):
                pos = _find(text, lt + 2, "?>") + 2
            else:
                pos = lt
                break


def parse_document(text: str, name: str = "") -> Document:
    """Parse a complete XML document string into a :class:`Document`.

    Raises :class:`~repro.errors.XmlParseError` with line/column
    information on malformed input.
    """
    document = Document(name)
    _parse_root(text, document, None)
    return document


def _parse_root(text: str, document: Optional[Document], parent) -> None:
    pos = _skip_misc(text, 0)
    if pos == len(text):
        raise _error(text, pos, "document contains no root element")
    pos = _skip_misc(text, _parse_element(text, pos, document, parent))
    if pos < len(text):
        raise _error(text, pos, "content after the root element")


class _Unbuilt:
    """An element :func:`scan_action` reads without building: its text
    runs, and its descendants', join *texts* (None: dropped), as
    ``text_content()`` reads them; below a ``<data>``, *nodes* (not
    None) keeps its children, built in *document*."""

    __slots__ = ("name", "texts", "nodes", "document")

    def __init__(self, name: str, texts=None, nodes=None, document=None):
        self.name = QName.parse(name)  # what the parser's errors name
        self.texts, self.nodes, self.document = texts, nodes, document

    def new_element(self, name: str, attributes: Dict[str, str]):
        if self.nodes is None:
            return _Unbuilt(name, self.texts)
        self.nodes.append(Element(self.document, name, attributes))
        return self.nodes[-1]

    def new_text(self, run: str) -> None:
        if self.nodes is not None:
            self.nodes.append(Text(self.document, run))
        elif self.texts is not None:
            self.texts.append(run)


class _Envelope(_Unbuilt):
    """The ``<action>`` root (and, for its own start tag, its parent):
    keeps its attributes, its first ``<location>``'s text runs and its
    ``<data>`` children's children; text between its children is not
    content."""

    __slots__ = ("attributes", "location", "data")

    def __init__(self, document: Document):
        self.name, self.texts, self.nodes, self.document = None, None, None, document
        self.attributes, self.location, self.data = {}, None, []

    def new_element(self, name: str, attributes: Dict[str, str]) -> _Unbuilt:
        if self.name is None:  # the root's own start tag
            self.name, self.attributes = QName.parse(name), attributes
            return self
        if name == "location" and self.location is None:
            self.location = []
            return _Unbuilt(name, self.location)
        return _Unbuilt(name, None, self.data if name == "data" else None, self.document)


def scan_action(text: str) -> Tuple[QName, Dict[str, str], Optional[str], List[Node]]:
    """Read an ``<action>`` document in one pass, building no envelope node.

    Returns the root's name and attributes, its first ``<location>``
    child's text as ``text_content()`` reads it (None: there is none)
    and its ``<data>`` children's children, parsed into one scratch
    ``Document("action")``.  Raises what :func:`parse_document` raises
    on the same text."""
    envelope = _Envelope(Document("action"))
    scan_document(text, envelope)
    location = None if envelope.location is None else "".join(envelope.location)
    return envelope.name, envelope.attributes, location, envelope.data


def scan_document(text: str, builder) -> None:
    """Parse a complete document through *builder*, building no node itself.

    The root's start tag goes to ``builder.new_element(name,
    attributes)``, and each element's content to ``new_element`` /
    ``new_text`` of what its start tag returned (which must name itself
    as ``.name.text`` for the errors).  Raises what
    :func:`parse_document` raises on the same text."""
    _parse_root(text, None, builder)


def parse_fragment(text: str, document: Document) -> List[Element]:
    """Parse one or more sibling elements into detached nodes of *document*.

    Used for ``<data>`` payloads of update actions and for service
    results: the fragment's elements are owned by *document* but not yet
    attached anywhere.
    """
    holder = document.create_element("__fragment__")
    pos = _skip_misc(text, 0)
    while pos < len(text):
        pos = _skip_misc(text, _parse_element(text, pos, document, holder))
    elements = holder.child_elements()
    for element in list(holder.children):
        element.detach()
    return elements
