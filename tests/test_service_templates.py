"""Compiled service templates against the text path they replace.

An update or delegating service parses its ``<action>`` definition once
(``ActionTemplate`` in ``repro.services.service``) and binds parameters
below ``<data>`` into the parsed form; a hole anywhere else — the
``<location>`` included — and every query service's Select take the text
path.  The reference is what every execution did before:
``parse_action(substitute(text, params))`` and the action's ``to_xml()``.
For every template string in the tree and a list of hostile values the
two must agree — equal frozen dataclasses and equal logged bytes, or the
same exception type and message — and the tests below also pin *which*
path a (template, value) pair takes, since agreement alone would hold
for a compiler that never compiled anything.  The last section checks
that ``<data>`` cloned from an action's prototypes is, ids included,
what parsing the ``<data>`` text gave.

Pinned on purpose, not endorsed: parameters are spliced as markup, so
``tag = a"/><evil x="1`` inserts a second node and
``name = x or i/price > 0`` widens a where clause (ROADMAP item 2(iii)).
"""

import ast
import dataclasses
import string
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.axml.document import AXMLDocument
from repro.errors import UpdateError
from repro.obs.prof import PROF
from repro.query.ast import ActionType, UpdateAction
from repro.query.evaluate import evaluate_select
from repro.query.parser import parse_action, parse_select
from repro.query.update import _materialize, apply_action
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import (
    ActionTemplate,
    DelegatingService,
    QueryService,
    UpdateService,
    substitute,
)
from repro.txn.compensation import compensating_actions_for
from repro.xmlstore.nodes import Document
from repro.xmlstore.parser import parse_fragment
from repro.xmlstore.serializer import rebind_element_ids, serialize
from tests.test_services import StubHost

ROOT = Path(__file__).resolve().parent.parent

VALUES = [
    "T001", "s0", "42", "-1.5e3", "é", "", "a b", "Roger  Federer", "In", "and", "a;b", "'x y'",
    "a=b", "x or i/price > 0", "a&b", "a&amp;b", "a<b", 'a"/><evil x="1', "$x", "$$",
]
#: The values of VALUES a compiled template binds; every other one must
#: reach the text path.
INERT = {"T001", "s0", "42", "-1.5e3", "In", "and"}

MARKER = (
    '<action type="insert"><data><chaos txn="$tag" step="$step"/></data>'
    "<location>Select d from d in D//items;</location></action>"
)
POINTS = "Select p/points from p in ATPList//player where p/name/lastname = $name;"

#: Template shapes the tree does not happen to contain.  These compile:
#: every hole sits below ``<data>``, where a value is data.
COMPILED_TEMPLATES = [
    MARKER,
    '<action type="insert"><data><m a="${tag}x" b="$$5">$tag $$ ${step}</m>t$step</data>'
    "<location>Select d from d in D//items where d/@k = 'k' and d/n != 1;</location></action>",
    '<action type="replace"><data><price cur="$$">$price</price></data>'
    "<location>Select i/price from i in Shop//item where i/@id = 1;</location></action>",
    '<action type="query"><location>Select i/price from i in Shop//item;</location></action>',
]
#: A hole in the ``<location>``, even as the whole literal of a
#: where-comparison: the text path, whatever the values.
LOCATION_HOLE_TEMPLATES = [
    '<action type="insert"><data><m a="${tag}x" b="$$5">$tag $$ ${step}</m>t$step</data>'
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
TEXT_ONLY_TEMPLATES = LOCATION_HOLE_TEMPLATES + [
    # a hole where a value is not data
    '<action type="insert"><data><$tag/></data><location>Select d from d in D;</location></action>',
    '<action type="insert"><data><m $tag="1"/></data><location>Select d from d in D;</location>'
    "</action>",
    '<action type="$type"><data><m/></data><location>Select d from d in D;</location></action>',
    '<action type="insert" anchor="after:$node"><data><m/></data>'
    "<location>Select d from d in D;</location></action>",
    '<action type="insert"><data note="$tag"><m/></data><location>Select d from d in D;</location>'
    "</action>",
    '<action type="insert"><data><m/><!-- $tag --></data><location>Select d from d in D;'
    "</location></action>",
    '<action type="insert"><data><m a="&#122;zhole0zz" b="$tag"/></data>'
    "<location>Select d from d in D;</location></action>",
    "Select p from p in D//$step;",
    "Select p/$field from p in D//x;",
    "Select p from p in $doc//x where p/a = 1;",
    "Select p from p in D//x where p/$field = 1;",
    "Select p from p in D//x where p/a = x$v;",
    "Select p from p in D//x where p/a = Roger $v;",
    "Select p from p in D//x where p/a $op 1;",
    "$q",
    # malformed: the constructor must not raise, binding raises what it always has
    "Select p from p in D//x where p/a = $;",
    "Select p from p in D//x where p/a = ${a;",
    '<action type="insert"><data><m></data><location>Select d from d in D;</location></action>',
    '<action type="insert"><data><m a="$tag"/></data></action>',
    "<action type='insert'><data>$tag</data><location>Select from;</location></action>",
    "zzhole0zz $a",
    "",
]


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


EXTRA_TEMPLATES = COMPILED_TEMPLATES + TEXT_ONLY_TEMPLATES
TREE_TEMPLATES = _tree_templates()
TEMPLATES = list(dict.fromkeys(EXTRA_TEMPLATES + TREE_TEMPLATES))


def _hole_names(text):
    names = (m.group("named") or m.group("braced") for m in string.Template.pattern.finditer(text))
    return list(dict.fromkeys(name for name in names if name))


def _outcome(thunk):
    try:
        return thunk()
    except Exception as exc:  # the error is part of the contract
        return type(exc), str(exc)


def _text_action(text, params):
    action = parse_action(substitute(text, params))
    return action, action.to_xml()


def _assert_same(text, params):
    """The template agrees with its text path on (*text*, *params*)."""
    bound = _outcome(lambda: ActionTemplate(text).bind(params))
    assert bound == _outcome(lambda: _text_action(text, params))
    if not isinstance(bound[0], type):
        action, action_xml = bound
        assert action.to_xml() == action_xml


def _parameter_sets(names):
    for value in VALUES:
        yield {name: value for name in names}
    yield {name: VALUES[(i * 7 + 3) % len(VALUES)] for i, name in enumerate(names)}
    yield {name: "T001" for name in names[1:]}  # one missing
    yield {**{name: "s0" for name in names}, "unused": 'x"<'}  # one extra


def test_the_tree_has_templates_to_check():
    assert len(TEMPLATES) > 100
    assert any("$tag" in text and "<chaos" in text for text in TREE_TEMPLATES)
    assert sum(bool(_hole_names(text)) for text in TEMPLATES) > 30


def test_bind_agrees_with_the_text_path():
    # One test, not one per template: a template's text is no test id.
    for text in TEMPLATES:
        for params in _parameter_sets(_hole_names(text)):
            _assert_same(text, params)
    # A location hole is served by the text path itself, inert value or not.
    for text in LOCATION_HOLE_TEMPLATES:
        compiled = ActionTemplate(text)
        for params in _parameter_sets(_hole_names(text)):
            assert _paths_taken(lambda: compiled.bind(params)) == (0, 1), (text, params)
            bound = _outcome(lambda: compiled.bind(params))
            assert bound == _outcome(lambda: _text_action(text, params))


_hostile = st.text(alphabet="aT0.:-_ '\"<>&;=$/,!\né", max_size=6)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([t for t in EXTRA_TEMPLATES if _hole_names(t)]),
    st.lists(_hostile, min_size=3, max_size=3),
)
def test_bind_agrees_on_generated_values(text, values):
    _assert_same(text, dict(zip(_hole_names(text), values)))


# -- which path ---------------------------------------------------------------


def _paths_taken(thunk):
    before = PROF.snapshot()
    _outcome(thunk)
    delta = PROF.delta_since(before)
    return delta.get("service_template_bound", 0), delta.get("service_template_text", 0)


def test_only_inert_values_are_bound():
    for text in COMPILED_TEMPLATES:
        compiled = ActionTemplate(text)
        for value in VALUES if _hole_names(text) else ():
            params = {name: value for name in _hole_names(text)}
            expected = (1, 0) if value in INERT else (0, 1)
            assert _paths_taken(lambda: compiled.bind(params)) == expected, (text, value)


def test_holes_in_markup_and_malformed_templates_stay_text_only():
    for text in TEXT_ONLY_TEMPLATES:
        params = {name: "T001" for name in _hole_names(text)}
        compiled = ActionTemplate(text)  # never raises
        assert _paths_taken(lambda: compiled.bind(params)) == (0, 1), text


def test_missing_parameter_and_non_string_value_take_the_text_path():
    compiled = ActionTemplate(MARKER)
    assert _paths_taken(lambda: compiled.bind({"tag": "T001"})) == (0, 1)
    assert _paths_taken(lambda: compiled.bind({"tag": "T001", "step": 3})) == (0, 1)
    action, _ = compiled.bind({"tag": "T001", "step": 3})
    assert action.data == ('<chaos step="3" txn="T001"/>',)


def test_hole_free_location_is_shared():
    compiled = ActionTemplate(MARKER)
    first, _ = compiled.bind({"tag": "T001", "step": "s0"})
    second, _ = compiled.bind({"tag": "T002", "step": "s1"})
    assert first.location is second.location
    assert first.data != second.data


ATPLIST = (
    "<ATPList><player><name><lastname>Federer</lastname></name><points>890</points></player>"
    "<player><name><lastname>Nadal</lastname></name><points>5</points></player></ATPList>"
)


def test_spliced_markup_is_pinned_not_endorsed():
    action, _ = ActionTemplate(MARKER).bind({"tag": 'a"/><evil x="1', "step": "s0"})
    assert action.data == ('<chaos txn="a"/>', '<evil step="s0" x="1"/>')
    # QueryService substitutes and parses: the value widens the where clause.
    service = QueryService(ServiceDescriptor("points", params=("name",)), POINTS)
    host = StubHost({"ATPList": AXMLDocument.from_xml(ATPLIST, name="ATPList")})
    assert service.execute({"name": "Federer"}, host).fragments == ["<points>890</points>"]
    widened = service.execute({"name": "x or p/points > 0"}, host).fragments
    assert widened == ["<points>890</points>", "<points>5</points>"]


# -- through the services -----------------------------------------------------


class RecordingHost(StubHost):
    """Keeps the logged text and the records, not just their count."""

    def record_changes(self, records, document_name, action_xml, action):
        # The seeded action is what parsing the logged text gives back.
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


def _reference_run(text, params, host, update_fragments):
    """What ``UpdateService._run`` and the local half of
    ``DelegatingService._run`` did before templates compiled (no
    resolver here, so a query materializes nothing)."""
    action = parse_action(substitute(text, params))
    document = host.get_axml_document("Shop").document
    result = apply_action(document, action)
    if result.records:
        host.record_changes(result.records, "Shop", action.to_xml(), action)
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
        query = parse_select(substitute(text, {"low": value}))
        document = host.get_axml_document("Shop").document
        return [serialize(node) for node in evaluate_select(query, document).all_nodes()]

    assert _outcome(lambda: service.execute({"low": value}, host).fragments) == _outcome(reference)


def test_the_definition_text_stays_readable():
    service = UpdateService(ServiceDescriptor("S"), MARKER)
    assert service.template.text == MARKER
    delegating = DelegatingService(ServiceDescriptor("S"), [])
    assert delegating.local_action_template is None


# -- <data> becomes nodes by cloning ------------------------------------------


def _parse_fragment_as_before(document, fragment_xml, rebind):
    """How ``<data>`` text became nodes before actions carried prototypes."""
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
    """Each fragment of *action* cloned into a fresh document is what
    parsing its text there gives: tree, ids and serials used, or the
    error (which now uses the holder's serial only)."""
    for position, fragment_xml in enumerate(action.data):
        cloned = _rendered(Document("twin"), lambda doc: _materialize(doc, action, position))
        parsed = _rendered(
            Document("twin"),
            lambda doc: _parse_fragment_as_before(doc, fragment_xml, action.rebind),
        )
        if cloned[0].startswith("(<class"):
            assert (cloned[0], cloned[1]) == (parsed[0], 2), (action, position)
        else:
            assert cloned == parsed, (action, position)


def _actions_of(text, params):
    """The bound action, the text path's and an unseeded copy of each."""
    actions = []
    for build in (lambda: ActionTemplate(text).bind(params)[0], lambda: _text_action(text, params)[0]):
        action = _outcome(build)
        if isinstance(action, UpdateAction):
            actions += [action, dataclasses.replace(action, _prototypes=None)]
    return actions


def test_cloned_data_is_what_its_text_parses_to():
    # One test over every template of the tree, as for bind above.
    checked = 0
    for text in TEMPLATES:
        for params in _parameter_sets(_hole_names(text)):
            for action in _actions_of(text, params):
                _assert_clone_is_parse(action)
                checked += len(action.data)
    assert checked > 1000


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([t for t in EXTRA_TEMPLATES if _hole_names(t)]),
    st.lists(_hostile, min_size=3, max_size=3),
)
def test_clone_agrees_with_parse_on_generated_values(text, values):
    for action in _actions_of(text, dict(zip(_hole_names(text), values))):
        _assert_clone_is_parse(action)


def test_only_the_bound_path_fills_holes_while_cloning():
    compiled = ActionTemplate(MARKER)
    for value in VALUES:
        bound = _outcome(lambda: compiled.bind({"tag": value, "step": "s0"}))
        if isinstance(bound[0], type):
            continue  # the text path raised, as the text always did
        fills = bound[0]._prototypes is not None and bound[0]._prototypes[1] is not None
        assert fills == (value in INERT), value


def test_snapshot_text_parses_once_and_rebinds_ids():
    axml = AXMLDocument.from_xml(SHOP, name="Shop")
    document = axml.document
    deleted = apply_action(document, parse_action(
        '<action type="delete"><location>Select i from i in Shop//item where i/@id = 2;'
        "</location></action>"
    ))
    (compensation,) = compensating_actions_for(deleted, "Shop")
    assert compensation._prototypes is None  # snapshot text: parsed on first use
    restored = apply_action(document, compensation)
    assert restored.inserted_ids == [deleted.records[0].node_id]
    assert compensation._prototypes is not None
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
    params = {"tag": value, "step": "2" if value == "20" else value}
    for action in _actions_of(text, params)[::2]:
        seeded, unseeded = _apply_twins(action, dataclasses.replace(action, _prototypes=None))
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
