"""``parse_action`` against the tree reader it replaced.

``parse_action`` scans the ``<action>`` envelope in one pass
(:func:`repro.xmlstore.parser.scan_action`) and keeps each ``<data>``
child as a fragment tree that belongs to no document, instead of
parsing the text into a ``Document``, reading the tree and serializing
each ``<data>`` child back to text.  The tree reader is kept here as the
reference (its fragments held as that text): for every input both must
give an equal action (dataclass equality, ``to_xml()`` text, each
fragment's text, and each fragment built into a fresh document, ids
included) or raise the same exception type with the same message (line
and column included).  Inputs: every ``<action`` string literal in the
tree, the parser golden corpus's documents, generated envelopes and
every truncation of three canonical texts.
"""

import ast
import json
from pathlib import Path
from typing import Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuerySyntaxError
from repro.query.ast import ActionType, UpdateAction
from repro.query.parser import parse_action, parse_select
from repro.xmlstore.fragment import Fragment
from repro.xmlstore.nodes import Document, Element
from repro.xmlstore.parser import parse_document
from repro.xmlstore.serializer import serialize

ROOT = Path(__file__).resolve().parent.parent


def reference_parse_action(xml_text: str) -> UpdateAction:
    """The reader ``parse_action`` replaced: a whole ``Document``, then
    the tree read, each ``<data>`` child kept as its serialized text."""
    root = parse_document(xml_text, name="action").root
    if root.name.local != "action":
        raise QuerySyntaxError(f"expected <action>, found <{root.name.text}>")
    type_text = root.attributes.get("type", "")
    try:
        action_type = ActionType.parse(type_text)
    except ValueError as exc:
        raise QuerySyntaxError(str(exc))
    location_el = root.first_child("location")
    if location_el is None:
        raise QuerySyntaxError("<action> is missing its <location> query")
    location = parse_select(location_el.text_content())
    children = [child for data_el in root.find_children("data") for child in data_el.children]
    data = [Fragment(text=serialize(child)) for child in children]
    anchor: Optional[Tuple[str, str]] = None
    anchor_text = root.attributes.get("anchor")
    if anchor_text:
        mode, _, node_id = anchor_text.partition(":")
        if mode not in ("before", "after") or not node_id:
            raise QuerySyntaxError(f"malformed anchor attribute {anchor_text!r}")
        anchor = (mode, node_id)
    if action_type.is_update and action_type is not ActionType.DELETE and not data:
        raise QuerySyntaxError(
            f"<action type={action_type.value!r}> requires a <data> payload"
        )
    rebind = root.attributes.get("rebind", "") == "true"
    return UpdateAction(action_type, location, tuple(data), anchor, rebind)


def _built(fragment: Fragment):
    """*fragment* built into a fresh document: the nodes with their ids
    (the document's serial normalised) and the next serial, or the error."""
    document = Document("target")
    try:
        nodes = fragment.materialize(document)
    except Exception as exc:
        built = (type(exc), str(exc))
    else:
        built = [serialize(node, include_ids=True) for node in nodes]
    return repr(built).replace(f"d{document.serial}.", "d0."), next(document._next_node_serial)


def outcome(reader, text: str):
    """What *reader* makes of *text*: the action as values, or the error."""
    try:
        action = reader(text)
    except Exception as exc:  # the type is part of what is compared
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))
    texts = [fragment.text for fragment in action.data]
    return action, action.to_xml(), texts, [_built(fragment) for fragment in action.data]


def assert_same(texts) -> int:
    """Both readers agree on every text; returns how many were accepted."""
    pairs = [(outcome(parse_action, t), outcome(reference_parse_action, t)) for t in texts]
    assert [t for t, (got, want) in zip(texts, pairs) if got != want] == []
    return sum(not isinstance(got[0], type) for got, _ in pairs)


def _literals_with_actions():
    found = set()
    for directory in ("src", "tests", "examples", "benchmarks"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if "<action" in node.value:
                        found.add(node.value)
    return sorted(found)


def test_every_action_literal_in_the_tree():
    literals = _literals_with_actions()
    assert len(literals) > 100
    assert assert_same(literals) > 50  # the rest are f-string pieces and bad inputs


def test_the_parser_golden_documents():
    rows = json.loads((ROOT / "tests/data/parser_golden.json").read_text(encoding="utf-8"))
    documents = [row["input"] for row in rows if row["mode"] == "document"]
    assert len(documents) == 1200
    assert_same(documents)  # none is an action: the same XML errors or root error


CANONICAL = (
    '<action type="insert"><data><note by="c0t1.2">alpha</note></data>'
    "<location>Select i from i in D1//book where i/sku = 17;</location></action>",
    '<action type="replace"><data><price>delta</price></data>'
    "<location>Select i/price from i in D1//cd where i/sku = 4;</location></action>",
    "<?xml version='1.0'?>\n<x:action type='delete' anchor='after:d2.n9' rebind='true'>"
    "<!-- c --><location>\n<![CDATA[Select p from p in A//player where p/name = a&b]]>;"
    "</location><data>t<e a='&lt;'>x<?pi?>y</e></data></x:action>\n",
)


def test_every_truncation_of_the_canonical_texts():
    texts = [text[:end] for text in CANONICAL for end in range(len(text) + 1)]
    # only the whole texts parse, and the third without its last newline
    assert assert_same(texts) == len(CANONICAL) + 1


def test_no_document_per_parse():
    for text in CANONICAL + ("<action", "<action type='query'/>"):
        before = Document("probe").serial
        try:
            parse_action(text)
        except Exception:
            pass
        assert Document("probe").serial == before + 1  # the probe's own


def test_no_parse_builds_an_element(monkeypatch):
    built = []
    real_init = Element.__init__

    def init(self, *args, **kwargs):
        built.append(args[1])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Element, "__init__", init)
    parse_action('<action type="query"><location>Select i from i in D//b;</location></action>')
    for text in CANONICAL:
        action = parse_action(text)
    assert built == []  # no envelope, and no payload until an insert builds it
    action.data[1].materialize(Document("target"))  # <e a='&lt;'>x<?pi?>y</e>
    assert [str(name) for name in built] == ["e"]


# -- generated envelopes ------------------------------------------------------

SELECTS = (
    "Select i from i in D1//book where i/sku = 17;",
    "Select p/citizenship from p in ATPList//player where p/name/lastname = Federer;",
    "Select i/price from i in D1//cd;",
    "Select n from n in id(d1.n2@D1);",
    "Select i from i in D1//book where i/title = a&amp;b or i/sku = 3",
    "Select from where",
    "",
)
FRAGMENTS = (
    '<note by="t">alpha</note>',
    "<item a='1'><sku>3</sku><price>4</price></item>",
    "<e/>",
    "<e>a<![CDATA[ b&c ]]></e>",
    "<e>a<!-- split -->b</e>",
    "<e>x<?pi?>y</e>",
    '<axml:sc service="s"><axml:params/></axml:sc>',
    "<e repro:id='d1.n4'>&lt;&#65;&#x42;</e>",
    "loose text",
    "&amp; text",
    "<!-- only a comment -->",
    "<![CDATA[<cdata/>]]>",
    "<data><inner/></data>",
)
SPACE = st.sampled_from(("", " ", "\n", "\t ", "\r\n"))
OFTEN = st.sampled_from((True,) * 9 + (False,))


TYPES = ("insert", "delete", "replace", "query")
VALUES = TYPES + (
    "Query", "bogus", "", "before:d1.n2", "after:d3.n4", "sideways:d1", "before:", "true",
    "false", "a&amp;b", "&#34;q", "&lt;",
)


@st.composite
def attribute_lists(draw):
    """Mostly a valid ``type`` among other attributes, in any order."""
    pairs = draw(st.lists(st.tuples(
        st.sampled_from(("anchor", "rebind", "extra", "x:type")), st.sampled_from(VALUES),
    ), max_size=3, unique_by=lambda pair: pair[0]))
    if draw(OFTEN):
        kind = draw(st.sampled_from(TYPES if draw(OFTEN) else VALUES))
        pairs.insert(draw(st.integers(0, len(pairs))), ("type", kind))
    parts = []
    for key, value in pairs:
        quote = draw(st.sampled_from(("'", '"')))
        if quote in value:
            quote = "'" if quote == '"' else '"'
        parts.append(f"{draw(SPACE)} {key}{draw(SPACE)}={draw(SPACE)}{quote}{value}{quote}")
    return "".join(parts) + draw(SPACE)


@st.composite
def location_elements(draw):
    select = draw(st.sampled_from(SELECTS))
    cuts = sorted(draw(st.lists(st.integers(0, len(select)), max_size=2)))
    pieces, last = [], 0
    for cut in cuts + [len(select)]:
        pieces.append(select[last:cut])
        last = cut
    glue = st.sampled_from(("", " ", "<!-- c -->", "<?pi x?>", "<b>in</b>", "<b/>", "\n"))
    body = "".join(
        draw(st.sampled_from((piece, f"<![CDATA[{piece}]]>"))) + draw(glue)
        if "&" not in piece else piece + draw(glue)
        for piece in pieces
    )
    name = draw(st.sampled_from(("location",) * 6 + ("x:location",)))
    return f"<{name}{draw(SPACE)}>{body}</{name}>"


@st.composite
def data_elements(draw):
    body = "".join(draw(st.lists(st.sampled_from(FRAGMENTS), max_size=3)))
    name = draw(st.sampled_from(("data",) * 6 + ("x:data",)))
    return f"<{name}>{body}</{name}>" if body or draw(st.booleans()) else f"<{name}/>"


CHILDREN = st.one_of(
    location_elements(), data_elements(),
    st.sampled_from((
        "<other k='v'>x</other>", "<other/>", "stray text", "&amp;", "<!-- c -->", "<?pi?>",
        "<![CDATA[cdata]]>", "\n  ",
    )),
)


@st.composite
def envelopes(draw):
    name = draw(st.sampled_from(("action",) * 6 + ("x:action", "act")))
    children = draw(st.lists(CHILDREN, max_size=4))
    if draw(OFTEN):  # most envelopes have a location
        children.insert(draw(st.integers(0, len(children))), draw(location_elements()))
    prolog = draw(st.sampled_from(("", "<?xml version='1.0'?>\n", "<!-- head -->", " ")))
    tail = draw(st.sampled_from(("",) * 6 + ("\n", "<!-- tail -->", "<after/>", "x")))
    body = "".join(children)
    return f"{prolog}<{name}{draw(attribute_lists())}>{body}</{name}>{tail}"


@settings(max_examples=400, deadline=None)
@given(text=envelopes())
def test_generated_envelopes(text):
    assert outcome(parse_action, text) == outcome(reference_parse_action, text)
