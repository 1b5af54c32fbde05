"""Service templates bind values as data, never as text.

An update or delegating service parses its ``<action>`` definition once
(``ActionTemplate`` in ``repro.services.service``), and a query service
its Select as the ``<location>`` of one.  A hole stands for a whole
value — an attribute value or an element's character data below
``<data>``, or a where-literal — and a hole anywhere else, or a template
that does not parse, raises ``ServiceError`` when the template is built.
For every value, the bound action is what ``parse_action`` reads back
from its logged text; for values that mean the same spliced as text
(``INERT``) it is also what splicing them into the definition and
parsing gave (``_text_path``, the reference the binding replaced).  The
last section checks that ``<data>`` built from a fragment's tree is, ids
included, what parsing the fragment's text gives.
"""

import ast
import dataclasses
import string
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.axml.document import AXMLDocument
from repro.errors import QuerySyntaxError, ServiceError, UpdateError
from repro.query.ast import ActionType, UpdateAction
from repro.query.evaluate import evaluate_select
from repro.query.lexer import scan_select
from repro.query.parser import parse_action, parse_select
from repro.query.update import _materialize, apply_action
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import (
    ActionTemplate,
    DelegatingService,
    QueryService,
    UpdateService,
)
from repro.txn.compensation import compensating_actions_for
from repro.xmlstore.fragment import Fragment
from repro.xmlstore.nodes import Document
from repro.xmlstore.parser import parse_document, parse_fragment
from repro.xmlstore.serializer import escape_attribute, escape_text, rebind_element_ids, serialize
from tests.test_services import StubHost

ROOT = Path(__file__).resolve().parent.parent

VALUES = [
    "T001", "s0", "42", "-1.5e3", "é", "", "a b", "Roger  Federer", "In", "and", "a;b", "'x y'",
    "a=b", "x or i/price > 0", "a&b", "a&amp;b", "a<b", 'a"/><evil x="1', "$x", "$$", " pad ",
]
#: The values of VALUES that mean the same spliced into the definition's
#: text as bound as data: the text path is their reference.
INERT = {"T001", "s0", "42", "-1.5e3"}

MARKER = (
    '<action type="insert"><data><chaos txn="$tag" step="$step"/></data>'
    "<location>Select d from d in D//items;</location></action>"
)
POINTS = "Select p/points from p in ATPList//player where p/name/lastname = $name;"

#: Template shapes the tree does not happen to contain; each compiles.
COMPILED_TEMPLATES = [
    MARKER,
    '<action type="insert"><data><m a="$tag" b="$$5"><n>${step}</n>t<o/></m></data>'
    "<location>Select d from d in D//items where d/@k = 'k' and d/n != 1;</location></action>",
    '<action type="replace"><data><price cur="$$">$price</price></data>'
    "<location>Select i/price from i in Shop//item where i/@id = 1;</location></action>",
    '<action type="query"><location>Select i/price from i in Shop//item;</location></action>',
    '<action type="insert"><data><m a="$tag" b="$$5">${step}</m></data>'
    "<location>Select d from d in D//items where d/@k = '$tag' and d/n != ${step};</location>"
    "</action>",
    '<action type="replace"><data><price cur="$$">$price</price></data>'
    "<location>Select i/price from i in Shop//item where i/@id = $id;</location></action>",
    '<action type="delete"><location>Select i from i in Shop//item where i/@id = $id;</location>'
    "</action>",
    f'<action type="query"><location>{POINTS}</location></action>',
    '<action type="query"><location>'
    "Select p from p in D//x where p/a = ${a} or p/b >= $b and p/c = \"$a\";</location></action>",
]
#: A hole that is not a whole value, and templates that do not parse:
#: each raises ServiceError when the template is built.
BAD_TEMPLATES = [
    '<action type="insert"><data><$tag/></data><location>Select d from d in D;</location></action>',
    '<action type="insert"><data><m $tag="1"/></data><location>Select d from d in D;</location>'
    "</action>",
    '<action type="$type"><data><m/></data><location>Select d from d in D;</location></action>',
    '<action type="insert" anchor="after:$node"><data><m/></data>'
    "<location>Select d from d in D;</location></action>",
    '<action type="insert" rebind="$r"><data><m/></data>'
    "<location>Select d from d in D;</location></action>",
    '<action type="insert"><data note="$tag"><m/></data><location>Select d from d in D;</location>'
    "</action>",
    '<action type="insert"><data><m/><!-- $tag --></data><location>Select d from d in D;'
    "</location></action>",
    '<action type="insert"><data><m a="&#122;zhole0zz" b="$tag"/></data>'
    "<location>Select d from d in D;</location></action>",
    '<action type="insert"><data><m a="${tag}x"/></data><location>Select d from d in D;'
    "</location></action>",
    '<action type="insert"><data><m>t$step</m></data><location>Select d from d in D;'
    "</location></action>",
    '<action type="insert"><data><m>a<!-- c -->$step</m></data><location>Select d from d in D;'
    "</location></action>",
    '<action type="insert"><data><m>q<o/>$step</m></data><location>Select d from d in D;'
    "</location></action>",
    '<action type="insert"><data>$step</data><location>Select d from d in D;</location></action>',
    "Select p from p in D//$step;",
    "Select p/$field from p in D//x;",
    "Select p from p in $doc//x where p/a = 1;",
    "Select p from p in D//x where p/$field = 1;",
    "Select p from p in D//x where p/a = x$v;",
    "Select p from p in D//x where p/a = Roger $v;",
    "Select p from p in D//x where p/a = '$v x';",
    "Select p from p in D//x where p/a $op 1;",
    "$q",
    "Select p from p in D//x where p/a = $;",
    "Select p from p in D//x where p/a = ${a;",
    '<action type="insert"><data><m></data><location>Select d from d in D;</location></action>',
    '<action type="insert"><data><m a="$tag"/></data></action>',
    "<action type='insert'><data>$tag</data><location>Select from;</location></action>",
    "zzhole0zz $a",
    "",
]


def _as_action(text):
    """*text* as a template: an ``<action>`` as it is, a Select as the
    location of a query action (what ``QueryService`` compiles)."""
    if text.lstrip().startswith("<"):
        return text
    return f'<action type="query"><location>{escape_text(text)}</location></action>'


def _flatten(node):
    """The text of a string constant or f-string (``{expr}`` → ``X1``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_flatten(part) or "X1" for part in node.values)
    return None


def _tree_templates():
    """Every string in src/, examples/, benchmarks/bench_*.py and tests/
    that looks like a Select or an ``<action>`` (f-strings flattened)."""
    files = [
        *sorted((ROOT / "src").rglob("*.py")),
        *sorted((ROOT / "examples").glob("*.py")),
        *sorted((ROOT / "benchmarks").glob("bench_*.py")),
        *sorted((ROOT / "tests").glob("*.py")),
    ]
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            text = _flatten(node)
            if text and len(text) < 600 and ("<action" in text or "select " in text.lower()):
                found.append(text)
    return list(dict.fromkeys(found))


def _compiles(text):
    try:
        ActionTemplate(_as_action(text))
    except ServiceError:
        return False
    return True


EXTRA_TEMPLATES = COMPILED_TEMPLATES + BAD_TEMPLATES
TREE_TEMPLATES = _tree_templates()
TEMPLATES = list(dict.fromkeys(EXTRA_TEMPLATES + TREE_TEMPLATES))
GOOD_TEMPLATES = [_as_action(text) for text in TEMPLATES if _compiles(text)]


def _hole_names(text):
    names = (m.group("named") or m.group("braced") for m in string.Template.pattern.finditer(text))
    return list(dict.fromkeys(name for name in names if name))


def _outcome(thunk):
    try:
        return thunk()
    except Exception as exc:  # the error is part of the contract
        return type(exc), str(exc)


def _text_path(text, params):
    """What a bind gave before values were data: *params* spliced into
    the definition's text, parsed.  A reference for INERT values only."""
    return parse_action(string.Template(text).substitute(params))


def _assert_round_trip(text, params):
    """*params* bound into *text*: the bound action's ``to_xml()`` (the
    logged text) parses back to it."""
    action = ActionTemplate(text).bind(params)
    assert parse_action(action.to_xml()) == action
    return action


def _parameter_sets(names, values=VALUES):
    for value in values:
        yield {name: value for name in names}
    yield {name: values[(i * 7 + 3) % len(values)] for i, name in enumerate(names)}
    yield {**{name: "s0" for name in names}, "unused": 'x"<'}  # one extra


def test_the_tree_has_templates_to_check():
    assert len(TEMPLATES) > 100
    assert any("$tag" in text and "<chaos" in text for text in TREE_TEMPLATES)
    assert sum(bool(_hole_names(text)) for text in GOOD_TEMPLATES) > 15
    # Every template of the program compiles.
    for path in ROOT.glob("src/**/*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            text = _flatten(node)
            if text and "</action>" in text and "$" in text:
                assert _compiles(text), (path, text)


def test_bind_agrees_with_the_text_path():
    # One test, not one per template: a template's text is no test id.
    for text in GOOD_TEMPLATES:
        for params in _parameter_sets(_hole_names(text), sorted(INERT)):
            bound, reference = ActionTemplate(text).bind(params), _text_path(text, params)
            assert bound == reference, (text, params)
            assert bound.to_xml() == reference.to_xml(), (text, params)


_HOLED = [text for text in GOOD_TEMPLATES if _hole_names(text)]


@settings(max_examples=300, deadline=None)
@given(st.text(), st.sampled_from(_HOLED), st.lists(st.text(max_size=6), min_size=3, max_size=3))
@example('a"/><evil x="1', MARKER, ["", "", ""])
@example(" pad ", COMPILED_TEMPLATES[2], ["", "", ""])
@example("x", COMPILED_TEMPLATES[8], ["x or p/a = 1", "'", "In"])
@example("x", COMPILED_TEMPLATES[6], ['it\'s "q"', "", ""])  # no Select can spell it
def test_bind_agrees_on_generated_values(value, text, values):
    # Any text value inserts one element carrying that value ...
    action = _assert_round_trip(MARKER, {"tag": value, "step": "s0"})
    document = Document("D")
    document.create_root("D").append(document.create_element("items"))
    apply_action(document, action)
    (marker,) = document.root.first_child("items").children
    assert marker.attributes == {"txn": value, "step": "s0"}
    # ... and in any template, the logged text parses back to the bound action.
    params = dict(zip(_hole_names(text), values))
    literals = [params[name] for name in _hole_names(text.partition("<location>")[2])]
    if any("'" in value and '"' in value for value in literals):
        with pytest.raises(QuerySyntaxError):
            ActionTemplate(text).bind(params)  # a literal no Select can spell
        return
    _assert_round_trip(text, params)


# -- what a bind enters ------------------------------------------------------------


#: What a bind may not enter: it re-reads no text, and renders none.
TEXT_READERS = (
    parse_action, parse_document, parse_select, scan_select, parse_fragment, UpdateAction.to_xml
)


def _entered_readers(thunk):
    codes = {reader.__code__ for reader in TEXT_READERS}
    entered = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            entered.append(frame.f_code.co_name)

    sys.setprofile(count)
    try:
        result = thunk()
    finally:
        sys.setprofile(None)
    return entered, result


def test_every_value_is_bound_as_data():
    for text in COMPILED_TEMPLATES:
        compiled = ActionTemplate(text)
        for params in _parameter_sets(_hole_names(text)) if _hole_names(text) else ({},):
            entered, action = _entered_readers(lambda: compiled.bind(params))
            assert entered == [], (text, params)
            assert parse_action(action.to_xml()) == action, (text, params)


def test_bad_holes_and_malformed_templates_raise_at_construction():
    for text in BAD_TEMPLATES:
        with pytest.raises(ServiceError):
            ActionTemplate(_as_action(text))
    with pytest.raises(ServiceError, match=r"\$tag is not a whole value"):
        ActionTemplate(BAD_TEMPLATES[0])
    with pytest.raises(ServiceError, match="unknown action type '\\$type'"):
        ActionTemplate(BAD_TEMPLATES[2])
    with pytest.raises(ServiceError):
        QueryService(ServiceDescriptor("q"), "Select p from p in D//x where p/a = x$v;")


def test_missing_parameter_raises_and_non_string_value_binds():
    compiled = ActionTemplate(MARKER)
    with pytest.raises(ServiceError, match="template parameter 'step' was not provided"):
        compiled.bind({"tag": "T001"})
    action = compiled.bind({"tag": "T001", "step": 3})
    assert [fragment.text for fragment in action.data] == ['<chaos step="3" txn="T001"/>']
    assert action.data[0].root is not None  # a tree, not a text


def test_hole_free_location_is_shared():
    compiled = ActionTemplate(MARKER)
    first = compiled.bind({"tag": "T001", "step": "s0"})
    second = compiled.bind({"tag": "T002", "step": "s1"})
    assert first.location is second.location
    assert first.data != second.data


ATPLIST = (
    "<ATPList><player><name><lastname>Federer</lastname></name><points>890</points></player>"
    "<player><name><lastname>Nadal</lastname></name><points>5</points></player></ATPList>"
)


def test_spliced_markup_and_query_syntax_are_data():
    hostile = 'a"/><evil x="1'
    action = ActionTemplate(MARKER).bind({"tag": hostile, "step": "s0"})
    assert action.data[0].text == '<chaos step="s0" txn="a&quot;/&gt;&lt;evil x=&quot;1"/>'
    document = AXMLDocument.from_xml("<D><items/></D>", name="D").document
    apply_action(document, action)
    (marker,) = document.root.first_child("items").children
    assert marker.name.text == "chaos" and marker.attributes["txn"] == hostile
    # A query service binds a where-literal: the value cannot widen it.
    service = QueryService(ServiceDescriptor("points", params=("name",)), POINTS)
    host = StubHost({"ATPList": AXMLDocument.from_xml(ATPLIST, name="ATPList")})
    assert service.execute({"name": "Federer"}, host).fragments == ["<points>890</points>"]
    assert service.execute({"name": "x or p/points > 0"}, host).fragments == []


# -- through the services -----------------------------------------------------


class RecordingHost(StubHost):
    """Keeps the logged text and the records, not just their count."""

    def record_changes(self, records, document_name, action):
        # The executed action is what parsing its logged text gives back.
        action_xml = action.to_xml()
        assert parse_action(action_xml) == action
        self.recorded.append((document_name, [repr(r) for r in records], action_xml))


SHOP = (
    "<Shop><item id='1'><price>10</price></item><item id='2'><price>20</price></item>"
    "<items/></Shop>"
)
SERVICE_TEMPLATES = [
    '<action type="insert"><data><chaos txn="$tag" step="$step"/></data>'
    "<location>Select d from d in Shop//items;</location></action>",
    '<action type="replace"><data><price>$tag</price></data>'
    "<location>Select i/price from i in Shop//item where i/@id = $step;</location></action>",
    '<action type="delete"><location>Select i from i in Shop//item where i/price = $tag;'
    "</location></action>",
    '<action type="query"><location>Select i/price from i in Shop//item where i/@id = $step;'
    "</location></action>",
]


def _host():
    return RecordingHost({"Shop": AXMLDocument.from_xml(SHOP, name="Shop")})


def _quoted(value):
    """*value* as a quoted where-literal (none of the values holds both quotes)."""
    return f"'{value}'" if "'" not in value else f'"{value}"'


def _spliced(text, params):
    """*text* with each value spliced in as the text that spells it as
    data: escaped below ``<data>``, quoted in the ``<location>``."""
    data, _, location = text.partition("<location>")
    escaped = {name: escape_attribute(value) for name, value in params.items()}
    literals = {name: escape_text(_quoted(value)) for name, value in params.items()}
    return (
        string.Template(data).substitute(escaped)
        + "<location>"
        + string.Template(location).substitute(literals)
    )


def _reference_run(text, params, host, update_fragments):
    """What ``UpdateService._run`` and the local half of
    ``DelegatingService._run`` do, run from the definition's text with
    the values spliced in as data (no resolver here, so a query
    materializes nothing)."""
    action = parse_action(_spliced(text, params))
    document = host.get_axml_document("Shop").document
    result = apply_action(document, action)
    if result.records:
        host.record_changes(result.records, "Shop", action)
    if action.action_type is ActionType.QUERY:  # either service answers with the nodes
        return [serialize(node) for node in result.query_result.all_nodes()]
    if update_fragments:
        return [f'<inserted id="{i!r}"/>' for i in result.inserted_ids] or [
            f'<updated count="{result.target_count}"/>'
        ]
    return []


def _ids_normalised(host, value):
    serial = host.get_axml_document("Shop").document.serial
    return repr(value).replace(f"d{serial}.", "d0.")


@pytest.mark.parametrize("text", SERVICE_TEMPLATES, ids=["insert", "replace", "delete", "query"])
@pytest.mark.parametrize(
    "value", ["20", "T001", "a b", 'a"/><evil x="1', "", "and", "1 or i/@id = 2"],
    ids=["number", "word", "space", "markup", "empty", "keyword", "widening"],
)
@pytest.mark.parametrize("delegating", [False, True], ids=["update", "delegating"])
def test_service_execution_matches_the_text_path(text, value, delegating):
    params = {"tag": value, "step": "2" if value == "20" else value}
    descriptor = ServiceDescriptor(
        "S", params=("tag", "step"), target_document="Shop"
    )
    if delegating:
        service = DelegatingService(descriptor, [("AP2", "S2")], local_action_template=text)
    else:
        service = UpdateService(descriptor, text)
    host, reference_host = _host(), _host()

    def run():
        response = service.execute(params, host)
        return response.fragments, len(response.records), response.document_name

    def reference():
        fragments = _reference_run(text, params, reference_host, not delegating)
        if delegating:
            fragments += ["<from peer='AP2'/>"]
        return fragments, sum(len(r[1]) for r in reference_host.recorded), "Shop"

    assert _ids_normalised(host, _outcome(run)) == _ids_normalised(
        reference_host, _outcome(reference)
    )
    assert _ids_normalised(host, host.recorded) == _ids_normalised(
        reference_host, reference_host.recorded
    )
    assert host.get_axml_document("Shop").to_xml() == reference_host.get_axml_document(
        "Shop"
    ).to_xml()


def test_query_service_matches_the_text_path():
    for value in ["10", "20", "0", "-1.5e3", "a b", "'2 0'", "0 or i/price > 0", ""]:
        _check_query_service(value)


def _check_query_service(value):
    text = "Select i/price from i in Shop//item where i/price > $low;"
    service = QueryService(ServiceDescriptor("q", params=("low",)), text)
    host = _host()

    def reference():
        query = parse_select(string.Template(text).substitute({"low": _quoted(value)}))
        document = host.get_axml_document("Shop").document
        return [serialize(node) for node in evaluate_select(query, document).all_nodes()]

    assert _outcome(lambda: service.execute({"low": value}, host).fragments) == _outcome(reference)


def test_the_definition_text_stays_readable():
    service = UpdateService(ServiceDescriptor("S"), MARKER)
    assert service.template.text == MARKER
    delegating = DelegatingService(ServiceDescriptor("S"), [], local_action_template=None)
    assert delegating.local_action_template is None


# -- <data> becomes nodes by building its tree -------------------------------


def _parse_fragment_as_before(document, fragment_xml, rebind):
    """How ``<data>`` text became nodes before actions carried trees."""
    fragments = parse_fragment(fragment_xml, document)
    if len(fragments) != 1:
        raise UpdateError(f"<data> fragment must contain exactly one element, got {len(fragments)}")
    if rebind:
        rebind_element_ids(fragments[0], document)
    return fragments[0]


def _rendered(document, build):
    """*build*(document) rendered with ids, the document's serial
    normalised, and the serial its next node would take."""
    rendered = _outcome(lambda: serialize(build(document), include_ids=True))
    rendered = repr(rendered).replace(f"d{document.serial}.", "d0.")
    return rendered, next(document._next_node_serial)


def _assert_clone_is_parse(action):
    """Each fragment of *action* built into a fresh document is what
    parsing its text there gives: tree, ids and serials used, or the
    error."""
    for position, fragment in enumerate(action.data):
        built = _rendered(Document("twin"), lambda doc: _materialize(doc, action, position))
        parsed = _rendered(
            Document("twin"),
            lambda doc: _parse_fragment_as_before(doc, fragment.text, action.rebind),
        )
        assert built == parsed, (action, position)


def _as_text(action):
    """*action* with each fragment held as its text (what a payload read
    back from disk, or a compensation's snapshot, is)."""
    return dataclasses.replace(action, data=tuple(Fragment(text=f.text) for f in action.data))


def _actions_of(text, params):
    """The bound action, the parse of its logged text and a copy of each
    that holds its fragments as text."""
    actions = []
    bound = _outcome(lambda: ActionTemplate(text).bind(params))
    for build in (lambda: bound, lambda: parse_action(bound.to_xml())):
        action = _outcome(build)
        if isinstance(action, UpdateAction):
            actions += [action, _as_text(action)]
    return actions


def test_cloned_data_is_what_its_text_parses_to():
    # One test over every template of the tree, as for bind above.
    checked = 0
    for text in GOOD_TEMPLATES:
        for params in _parameter_sets(_hole_names(text)):
            for action in _actions_of(text, params):
                _assert_clone_is_parse(action)
                checked += len(action.data)
    assert checked > 1000


_hostile = st.text(alphabet="aT0.:-_ '\"<>&;=$/,!\né", max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_HOLED), st.lists(_hostile, min_size=3, max_size=3))
def test_clone_agrees_with_parse_on_generated_values(text, values):
    for action in _actions_of(text, dict(zip(_hole_names(text), values))):
        _assert_clone_is_parse(action)


def test_only_the_bound_path_fills_holes_while_cloning():
    # Every value binds into a copy of the template's tree, one a copy
    # must trim included; the template's own fragment keeps its holes,
    # and a fragment without a hole is shared, not copied.
    marker, price = ActionTemplate(MARKER), ActionTemplate(COMPILED_TEMPLATES[2])
    for value in VALUES:
        action = marker.bind({"tag": value, "step": "s0"})
        assert action.data[0].root is not None, value
        action = price.bind({"price": value})
        assert action.data[0].root is not None, value
        text = escape_text(value.strip())
        assert action.data[0].text == (
            f'<price cur="$">{text}</price>' if text else '<price cur="$"/>'
        ), value
    assert "zzhole" in marker._action.data[0].text
    holeless = ActionTemplate(COMPILED_TEMPLATES[4].replace("$tag", "t"))
    assert holeless.bind({"step": "1"}).data[0] is not holeless._action.data[0]
    fixed = ActionTemplate(SERVICE_TEMPLATES[0].replace("$tag", "t").replace("$step", "1"))
    assert fixed.bind({}).data[0] is fixed._action.data[0]


def test_snapshot_text_parses_once_and_rebinds_ids():
    axml = AXMLDocument.from_xml(SHOP, name="Shop")
    document = axml.document
    deleted = apply_action(document, parse_action(
        '<action type="delete"><location>Select i from i in Shop//item where i/@id = 2;'
        "</location></action>"
    ))
    (compensation,) = compensating_actions_for(deleted, "Shop")
    assert compensation.data[0].root is None  # snapshot text: parsed where it lands
    restored = apply_action(document, compensation)
    assert restored.inserted_ids == [deleted.records[0].node_id]
    assert compensation.data[0].root is None  # ... and no tree kept beside it
    _assert_clone_is_parse(compensation)


def _apply_twins(action, reference):
    """*action* and *reference* applied to twin Shop documents."""
    outcomes = []
    for each in (action, reference):
        document = AXMLDocument.from_xml(SHOP, name="Shop").document
        result = _outcome(lambda: apply_action(document, each))
        rendered = serialize(document, include_ids=True)
        if not isinstance(result, tuple):
            result = (result.records, result.inserted_ids)
        outcomes.append(repr((rendered, result)).replace(f"d{document.serial}.", "d0."))
    return outcomes


@pytest.mark.parametrize("text", SERVICE_TEMPLATES[:2], ids=["insert", "replace"])
@pytest.mark.parametrize("value", ["20", "T001", "a b", 'a"/><evil x="1', "", "and"])
def test_apply_of_a_seeded_action_matches_an_unseeded_copy(text, value):
    # Seeded: the fragments are trees; unseeded: the same fragments as text.
    params = {"tag": value, "step": "2" if value == "20" else value}
    for action in _actions_of(text, params)[::2]:
        seeded, unseeded = _apply_twins(action, _as_text(action))
        assert seeded == unseeded


def test_template_inserts_leave_no_fragment_holder_behind():
    service = UpdateService(ServiceDescriptor("S"), SERVICE_TEMPLATES[0])
    host = _host()
    for i in range(50):
        service.execute({"tag": f"T{i:03d}", "step": "s0"}, host)
    document = host.get_axml_document("Shop").document
    assert len(document.root.first_child("items").children) == 50
    assert not document.index.postings("__fragment__")
    assert len(document._index) == document.size()
