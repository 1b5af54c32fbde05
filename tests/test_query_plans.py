"""Compiled Select plans against the per-candidate interpreter they replaced.

``PathExpr`` compiles its steps, and ``evaluate_select`` runs a
where-clause over the whole candidate list at once.  The reference
below is the evaluator as it stood before: the generic step walker
re-entered once per candidate, with ``and``/``or`` short-circuiting per
candidate.  Over generated trees (``axml:sc`` containers, params / catch
/ retry regions, prefixed names, detached subtrees) and generated
where-clauses (nested ``and``/``or``, ``@attr``, ``text()``, ``..``,
``*``, ``//``, all six operators), both must give the same bindings (by
identity, in order), the same selected nodes, the same traversal-meter
total, the same ``query_*`` profiler counts, and the same exception —
from the index and from the reference walk alike.
"""

import contextlib
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QueryEvaluationError
from repro.obs.prof import PROF
from repro.query.ast import BooleanCondition, Comparison, NodeRef, SelectQuery, VarPath
from repro.query.evaluate import evaluate_select
from repro.xmlstore import path as path_module
from repro.xmlstore.names import QName
from repro.xmlstore.nodes import Document, Element, NodeId
from repro.xmlstore.path import PathExpr, TraversalMeter, parse_path

from tests.test_structural_index import walk_only

# ---------------------------------------------------------------------------
# The reference: per-candidate evaluation, as before plans
# ---------------------------------------------------------------------------


def ref_path(path: PathExpr, context, meter: TraversalMeter) -> List[Element]:
    steps = list(path.steps)
    if isinstance(context, Document):
        current = [context.root] if context.root is not None else []
        if current and steps and steps[0].axis == "child":
            meter.touch()
            name = steps[0].name
            if path_module._name_matches(steps[0], current[0]) or (
                name is not None and not name.prefix and name.local == context.name
            ):
                steps = steps[1:]
            else:
                current = []
    elif isinstance(context, Element):
        current = [context]
    else:
        current = list(context)
    for step in steps:
        if step.axis in ("text", "attribute"):
            break
        current = ref_step(step, current, meter)
    seen, out = set(), []
    for node in current:
        if node.node_id not in seen:
            seen.add(node.node_id)
            out.append(node)
    return out


def ref_step(step, context: List[Element], meter: TraversalMeter) -> List[Element]:
    result = []
    if step.axis == "child":
        for node in context:
            for child in path_module._logical_children(node, step):
                meter.touch()
                if path_module._name_matches(step, child):
                    result.append(child)
    elif step.axis == "descendant":
        indexed = path_module._indexed_descendants(step, context, meter)
        if indexed is not None:
            return indexed
        PROF.incr("query_tree_walks")
        for node in context:
            descendants = path_module._logical_descendants(node)
            PROF.incr("query_walk_nodes", len(descendants))
            for descendant in descendants:
                meter.touch()
                if path_module._name_matches(step, descendant):
                    result.append(descendant)
    else:
        for node in context:
            meter.touch()
            if node.parent is not None:
                result.append(node.parent)
    return result


def ref_holds(condition, context: Element, meter: TraversalMeter) -> bool:
    if isinstance(condition, Comparison):
        path = condition.left.path
        if path.steps and path.attribute_name:
            attr = path.attribute_name
            values = []
            for owner in ref_path(path, context, meter):
                if attr == "*":
                    values.extend(owner.attributes.values())
                elif attr in owner.attributes:
                    values.append(owner.attributes[attr])
            return any(condition.matches(value) for value in values)
        nodes = ref_path(path, context, meter) if path.steps else [context]
        return any(condition.matches(node.text_content()) for node in nodes)
    if condition.op == "and":
        return all(ref_holds(part, context, meter) for part in condition.parts)
    if condition.op == "or":
        return any(ref_holds(part, context, meter) for part in condition.parts)
    raise QueryEvaluationError(f"unknown boolean operator {condition.op!r}")


def ref_select(query: SelectQuery, document: Document, meter: TraversalMeter):
    """``[(context, {key: nodes})]`` per binding."""
    if document.root is None:
        return []
    if isinstance(query.source, NodeRef):
        node_id = NodeId.parse(query.source.node_id_text)
        if not document.has_node(node_id):
            return []
        node = document.get_node(node_id)
        meter.touch()
        candidates = [node] if node.is_attached() else []
    else:
        candidates = ref_path(query.source, document, meter)
    out = []
    for node in candidates:
        if query.where is not None and not ref_holds(query.where, node, meter):
            continue
        selected = {}
        for vp in query.select_paths:
            selected[str(vp)] = ref_path(vp.path, node, meter) if vp.path.steps else [node]
        out.append((node, selected))
    return out


# ---------------------------------------------------------------------------
# Generated documents, paths and where-clauses
# ---------------------------------------------------------------------------

NAMES = ("a", "b", "c", "p:a")
TEXTS = ("1", "2", "10", " 12 ", "x", "NaN", "1_0", "Infinity", "b")
META = ("params", "catch", "catchAll", "retry")


def build_document(data) -> Document:
    doc = Document("R")
    root = doc.create_root(QName("R"))
    _fill(data, root, 0)
    return doc


def _fill(data, parent: Element, depth: int) -> None:
    for _ in range(data.draw(st.integers(0, 3 if depth < 4 else 0))):
        kind = data.draw(st.sampled_from(("element", "element", "leaf", "text", "sc")))
        if kind == "text":
            parent.new_text(data.draw(st.sampled_from(TEXTS)))
        elif kind == "sc":
            sc = parent.new_element("axml:sc", {"service": "S"})
            region = data.draw(st.sampled_from(META + (None,)))
            if region is not None:
                _fill(data, sc.new_element(f"axml:{region}"), depth + 1)
            _fill(data, sc, depth + 1)
        else:
            attributes = data.draw(st.dictionaries(
                st.sampled_from(("rank", "seed")), st.sampled_from(TEXTS), max_size=2
            ))
            child = parent.new_element(data.draw(st.sampled_from(NAMES)), attributes)
            if kind == "leaf":
                child.new_text(data.draw(st.sampled_from(TEXTS)))
            else:
                _fill(data, child, depth + 1)


STEPS = ("a", "b", "c", "p:a", "axml:sc", "*", "..", "//a", "//b", "//*", "//axml:sc")
TERMINALS = ("", "text()", "@rank", "@*")


@st.composite
def paths(draw, terminals=TERMINALS) -> PathExpr:
    text = ""
    for token in draw(st.lists(st.sampled_from(STEPS), max_size=3)):
        text += token if token.startswith("//") or not text else "/" + token
    terminal = draw(st.sampled_from(terminals))
    if terminal:
        text += "/" + terminal if text else terminal
    return parse_path(text) if text else PathExpr(())


OPERATORS = ("=", "!=", "<", ">", "<=", ">=")
LITERALS = ("1", "2", "10", "12", "x", "NaN", "1_0", "Infinity", "1e999", "b")

comparisons = st.builds(
    Comparison,
    st.builds(VarPath, st.just("i"), paths()),
    st.sampled_from(OPERATORS),
    st.sampled_from(LITERALS),
)
conditions = st.recursive(
    comparisons,
    lambda parts: st.builds(
        BooleanCondition, st.sampled_from(("and", "or")),
        st.lists(parts, min_size=1, max_size=3).map(tuple),
    ),
    max_leaves=6,
)


def poison(condition, target: int, counter=None):
    """*condition* with its *target*-th node (pre-order) made invalid: a
    comparison gets operator ``~``, a boolean ``xor``."""
    counter = counter if counter is not None else [0]
    here = counter[0]
    counter[0] += 1
    if isinstance(condition, Comparison):
        if here == target:
            return Comparison(condition.left, "~", condition.literal)
        return condition
    parts = tuple(poison(part, target, counter) for part in condition.parts)
    return BooleanCondition("xor" if here == target else condition.op, parts)


SOURCES = ("R//a", "R//*", "R/*", "R//b", "R//axml:sc", "R", "//a", "R/a/..", "R//a/..", "X//a")


def nodes_of(doc: Document) -> List[Element]:
    return [node for node in doc._index.values() if isinstance(node, Element)]


def maybe_detach(data, doc: Document) -> None:
    elements = [node for node in doc.root.iter_elements() if node is not doc.root]
    if elements and data.draw(st.booleans()):
        data.draw(st.sampled_from(elements)).detach()


def outcome(run):
    """(result, meter total, query_* profiler deltas) or the exception."""
    meter = TraversalMeter()
    before = PROF.snapshot()
    try:
        result = run(meter)
    except Exception as exc:  # compared by type and message
        return ("raised", type(exc), str(exc))
    delta = {k: v for k, v in PROF.delta_since(before).items() if k.startswith("query_")}
    return result, meter.nodes_traversed, delta


def same(left, right) -> None:
    if left[0] == "raised" or right[0] == "raised":
        assert left == right
        return
    assert _ids(left[0]) == _ids(right[0])
    assert left[1:] == right[1:]


def _ids(value):
    if isinstance(value, Element):
        return id(value)
    if isinstance(value, dict):
        return {key: _ids(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_ids(item) for item in value]
    return value


WALKS = pytest.mark.parametrize("walk", [False, True], ids=["index", "walk"])


def _mode(walk: bool):
    return walk_only() if walk else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@WALKS
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_select_matches_per_candidate_reference(walk, data):
    doc = build_document(data)
    maybe_detach(data, doc)
    where = data.draw(st.none() | conditions)
    if where is not None and data.draw(st.integers(0, 4)) == 0:
        where = poison(where, data.draw(st.integers(0, 8)))
    selects = tuple(
        VarPath("i", path)
        for path in data.draw(st.lists(paths(terminals=("",)), min_size=1, max_size=2))
    )
    if data.draw(st.integers(0, 5)) == 0:
        target = data.draw(st.sampled_from(nodes_of(doc)))
        source = NodeRef(repr(target.node_id), "R")
    else:
        source = parse_path(data.draw(st.sampled_from(SOURCES)))
    query = SelectQuery(selects, "i", source, where)
    with _mode(walk):
        expected = outcome(lambda meter: ref_select(query, doc, meter))
        got = outcome(lambda meter: [
            (b.context, b.selected) for b in evaluate_select(query, doc, meter).bindings
        ])
        same(got, expected)
        # A second evaluation runs the memoized compiled paths: same answer.
        same(outcome(lambda meter: [
            (b.context, b.selected) for b in evaluate_select(query, doc, meter).bindings
        ]), expected)


@WALKS
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_paths_match_reference_from_any_context(walk, data):
    """Compiled steps from the document, from single elements — attached,
    detached, inside call metadata — and from element lists."""
    doc = build_document(data)
    maybe_detach(data, doc)
    path = data.draw(paths())
    contexts = data.draw(st.lists(st.sampled_from(nodes_of(doc)), max_size=4))
    with _mode(walk):
        same(outcome(lambda m: path.evaluate(doc, m)), outcome(lambda m: ref_path(path, doc, m)))
        for context in contexts:
            same(
                outcome(lambda m: path.evaluate(context, m)),
                outcome(lambda m: ref_path(path, context, m)),
            )
        same(
            outcome(lambda m: path.evaluate(contexts, m)),
            outcome(lambda m: ref_path(path, contexts, m)),
        )
        # each(): one reach per context, the per-context evaluation
        # before its deduplication (a where-clause is existential).
        same(
            outcome(lambda m: [
                list({id(n): n for n in reached}.values())
                for reached in path.each(contexts, m)
            ]),
            outcome(lambda m: [ref_path(path, context, m) for context in contexts]),
        )


class TestNumericComparison:
    """A side is a number only if ``float()`` reads it as a finite value
    and it has no ``_``; otherwise both sides compare as strings."""

    @staticmethod
    def holds(op: str, literal: str, value: str) -> bool:
        return Comparison(VarPath("i", parse_path("v")), op, literal).matches(value)

    def test_nan_text_equals_nan_literal(self):
        assert self.holds("=", "NaN", "NaN")  # numerically, NaN != NaN

    def test_underscore_is_not_a_digit_separator(self):
        assert not self.holds("=", "1000", "1_000")
        assert self.holds("=", "1_000", "1_000")

    def test_infinity_compares_as_a_string(self):
        assert not self.holds("=", "inf", "Infinity")  # both parse to inf
        assert not self.holds("=", "1e999", "Infinity")
        assert self.holds(">", "5", "Infinity") == ("Infinity" > "5")
        assert self.holds("<", "50", "Infinity") is False  # inf < 50 was False too

    def test_padded_number_stays_a_number(self):
        assert self.holds("=", "12", " 12 ")
        assert self.holds("<", "10", "9")  # "9" < "10" is False as strings

    def test_unknown_operator(self):
        with pytest.raises(ValueError, match="unknown operator '~'"):
            self.holds("~", "1", "1")

    def test_through_a_where_clause(self):
        doc = Document("R")
        root = doc.create_root(QName("R"))
        for value in ("NaN", "1_000", "Infinity", " 12 "):
            root.new_element("i").new_element("v").new_text(value)
        for where, expected in (("NaN", ["NaN"]), ("1000", []), ("12", [" 12 "])):
            query = SelectQuery(
                (VarPath("i", parse_path("v")),), "i", parse_path("R/i"),
                Comparison(VarPath("i", parse_path("v")), "=", where),
            )
            assert evaluate_select(query, doc).texts() == expected
