"""Compiled Select plans against the per-candidate interpreter they replaced.

``PathExpr`` compiles its steps, and ``evaluate_select`` runs a
where-clause over the whole candidate list at once, before the source's
``//name`` candidates are put in document order (reach → filter →
order).  The reference below is the evaluator as it stood before plans:
the generic step walker re-entered once per candidate, with ``and``/``or``
short-circuiting per candidate.  It orders every ``//name`` step by a
pre-order walk of the context's logical subtree and never asks the
structural index to order anything, and it reads a node's text by its
own reading of the logical-text rule (``axml:sc`` transparent, call
metadata skipped).  Over generated trees (``axml:sc`` containers,
params / catch / retry regions, prefixed names, nested same-name
elements, detached subtrees) and generated where-clauses (nested
``and``/``or``, ``@attr``, ``text()``, ``..``, ``*``, ``//``, all six
operators), both must give the same bindings (by identity, in order),
the same selected nodes, the same traversal-meter total, the same
``query_*`` profiler counts, and the same exception — from the index and
from the reference walk alike.
"""

import contextlib
import re
from collections import Counter
from typing import List, Optional
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.errors import QueryEvaluationError, XmlStructureError
from repro.obs.prof import PROF
from repro.query.ast import (
    ActionType, BooleanCondition, Comparison, NodeRef, SelectQuery, UpdateAction, VarPath,
)
from repro.query.evaluate import evaluate_select
from repro.query.parser import parse_select
from repro.query.update import _materialize, apply_action
from repro.txn.compensation import compensating_actions_for
from repro.xmlstore import path as path_module
from repro.xmlstore.fragment import Fragment, FragmentNode
from repro.xmlstore.index import StructuralIndex
from repro.xmlstore.names import QName
from repro.xmlstore.nodes import Document, Element, NodeId, Text
from repro.xmlstore.parser import parse_document
from repro.xmlstore.path import PathExpr, TraversalMeter, parse_path

from tests.test_structural_index import walk_only

# ---------------------------------------------------------------------------
# The reference: per-candidate evaluation, as before plans
# ---------------------------------------------------------------------------

META_LOCALS = ("params", "catch", "catchAll", "retry")


def ref_text(node) -> str:
    """The logical text, read independently: every text node of the
    subtree except those under an ``axml:`` params / handler element
    below *node*."""
    if isinstance(node, Text):
        return node.value
    out = []

    def visit(element):
        for child in element.children:
            if isinstance(child, Text):
                out.append(child.value)
            elif not (child.name.prefix == "axml" and child.name.local in META_LOCALS):
                visit(child)

    visit(node)
    return "".join(out)


def ref_path(path: PathExpr, context, meter: TraversalMeter, indexed: bool) -> List[Element]:
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
        current = ref_step(step, current, meter, indexed)
    seen, out = set(), []
    for node in current:
        if node.node_id not in seen:
            seen.add(node.node_id)
            out.append(node)
    return out


def ref_step(step, context: List[Element], meter: TraversalMeter, indexed: bool) -> List[Element]:
    result = []
    if step.axis == "child":
        for node in context:
            for child in path_module._logical_children(node, step):
                meter.touch()
                if path_module._name_matches(step, child):
                    result.append(child)
    elif step.axis == "descendant":
        if indexed and step.name is not None and len(context) == 1:
            # The index answers (the counters and the charge say so), and
            # what it must answer is the walk's result, in walk order.
            ctx = context[0]
            if len(ctx.document.index.postings(step.name.local)) <= ctx._logical_count:
                PROF.incr("query_index_hits")
                meter.touch(ctx._logical_count)
                return [
                    d for d in path_module._logical_descendants(ctx)
                    if path_module._name_matches(step, d)
                ]
            PROF.incr("query_index_skips")
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


def ref_holds(condition, context: Element, meter: TraversalMeter, indexed: bool) -> bool:
    if isinstance(condition, Comparison):
        path = condition.left.path
        if path.steps and path.attribute_name:
            attr = path.attribute_name
            values = []
            for owner in ref_path(path, context, meter, indexed):
                if attr == "*":
                    values.extend(owner.attributes.values())
                elif attr in owner.attributes:
                    values.append(owner.attributes[attr])
            return any(condition.matches(value) for value in values)
        nodes = ref_path(path, context, meter, indexed) if path.steps else [context]
        return any(condition.matches(ref_text(node)) for node in nodes)
    if condition.op == "and":
        return all(ref_holds(part, context, meter, indexed) for part in condition.parts)
    if condition.op == "or":
        return any(ref_holds(part, context, meter, indexed) for part in condition.parts)
    raise QueryEvaluationError(f"unknown boolean operator {condition.op!r}")


def ref_select(query: SelectQuery, document: Document, meter: TraversalMeter, indexed: bool):
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
        candidates = ref_path(query.source, document, meter, indexed)
    out = []
    for node in candidates:
        if query.where is not None and not ref_holds(query.where, node, meter, indexed):
            continue
        selected = {}
        for vp in query.select_paths:
            selected[str(vp)] = (
                ref_path(vp.path, node, meter, indexed) if vp.path.steps else [node]
            )
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


STEPS = (
    "a", "b", "c", "p:a", "axml:sc", "*", "..", "//a", "//b", "//*", "//axml:sc", "//axml:params",
)
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


SOURCES = (
    "R//a", "R//*", "R/*", "R//b", "R//axml:sc", "R//axml:catch", "R", "//a", "R/a/..",
    "R//a/..", "X//a",
)


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
        expected = outcome(lambda meter: ref_select(query, doc, meter, not walk))
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
        same(
            outcome(lambda m: path.evaluate(doc, m)),
            outcome(lambda m: ref_path(path, doc, m, not walk)),
        )
        for context in contexts:
            same(
                outcome(lambda m: path.evaluate(context, m)),
                outcome(lambda m: ref_path(path, context, m, not walk)),
            )
        same(
            outcome(lambda m: path.evaluate(contexts, m)),
            outcome(lambda m: ref_path(path, contexts, m, not walk)),
        )
        # each(): one reach per context, the per-context evaluation
        # before its deduplication (a where-clause is existential).
        same(
            outcome(lambda m: [
                list({id(n): n for n in reached}.values())
                for reached in path.each(contexts, m)
            ]),
            outcome(lambda m: [ref_path(path, context, m, not walk) for context in contexts]),
        )


# ---------------------------------------------------------------------------
# Filter before order: several survivors, under different parents
# ---------------------------------------------------------------------------


def build_wide_document(data) -> Document:
    """``a`` candidates spread over several parents, nested in one
    another (``a`` in ``a``), inside ``axml:sc`` containers and
    params / handler regions, and (maybe) one detached subtree — each with
    a ``b`` child and a ``rank``, so a loose where-clause keeps two or
    more of them and their order has to be made."""
    doc = Document("R")
    parents = [doc.create_root(QName("R"))]
    for _ in range(data.draw(st.integers(3, 10))):
        parent = data.draw(st.sampled_from(parents))
        kind = data.draw(st.sampled_from(("a", "a", "a", "b", "sc", "region")))
        if kind == "sc":
            node = parent.new_element("axml:sc", {"service": "S"})
        elif kind == "region":
            region = data.draw(st.sampled_from(META))
            node = parent.new_element("axml:sc", {"service": "S"}).new_element(f"axml:{region}")
        else:
            node = parent.new_element(kind, {"rank": data.draw(st.sampled_from(("1", "2")))})
            node.new_element("b").new_text(data.draw(st.sampled_from(("1", "2", " 1 "))))
        parents.append(node)
    maybe_detach(data, doc)
    return doc


WIDE_WHERES = (
    "i/b = 1", "i/b != 2", "i/b/text() < 2", "i/@rank = 1", "i//b = 1",
    "i/a/b = 1", "i/b = 1 or i/@rank = 2", "i/b = 1 and i/.. = 1", "i/b > 9",
)


def _spy_order_ranks(calls: list):
    real = StructuralIndex.order_ranks

    def order_ranks(index, candidates, under):
        calls.append((list(candidates), under))
        return real(index, candidates, under)

    return mock.patch.object(StructuralIndex, "order_ranks", order_ranks)


def _where(text: str):
    return parse_select(f"Select i from i in R//a where {text};").where


@WALKS
def test_filtered_survivors_are_ordered_like_the_walk(walk):
    """The where-clause runs on the reachable candidates in postings
    order; only its survivors are put in document order, and that order
    is the walk's.  The counters check the generator really makes two or
    more survivors, under different parents, nested in one another."""
    exercised: Counter = Counter()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def check(data):
        doc = build_wide_document(data)
        loose = data.draw(st.booleans())
        where = data.draw(st.sampled_from(WIDE_WHERES).map(_where) if loose else conditions)
        query = SelectQuery((VarPath("i", parse_path("b")),), "i", parse_path("R//a"), where)
        indexed = not walk and len(doc.index.postings("a")) <= doc.root._logical_count
        calls: list = []
        with _mode(walk):
            expected = outcome(lambda meter: ref_select(query, doc, meter, not walk))
            with _spy_order_ranks(calls):
                got = outcome(lambda meter: [
                    (b.context, b.selected) for b in evaluate_select(query, doc, meter).bindings
                ])
            same(got, expected)
        if not indexed or got[0] == "raised":
            return
        survivors = [context for context, _ in got[0]]
        if loose:  # no where-path of these climbs from the root
            from_source = [{id(n) for n in call} for call, under in calls if under is doc.root]
            assert from_source == ([{id(n) for n in survivors}] if len(survivors) > 1 else [])
        if len(survivors) < 2:
            return
        exercised["ordered"] += 1
        event("two or more survivors ordered")
        if len({id(n.parent) for n in survivors}) > 1:
            exercised["parents"] += 1
            event("survivors under different parents")
        if any(a in b.ancestors() for a in survivors for b in survivors):
            exercised["nested"] += 1
            event("a survivor nested in another")

    check()
    if not walk:
        assert exercised["ordered"] and exercised["parents"] and exercised["nested"], exercised


class TestLogicalText:
    """Where-clauses and ``text()`` read a node's logical text: an
    ``axml:sc`` is transparent, its params and fault handlers are not
    content."""

    DOC = (
        '<C><it><sku>1</sku><price>1<axml:sc service="s">'
        '<axml:params><axml:param name="p"><axml:value>9</axml:value></axml:param>'
        "</axml:params><axml:catch>x</axml:catch>0</axml:sc></price></it></C>"
    )

    def select(self, text: str):
        return evaluate_select(parse_select(text), parse_document(self.DOC))

    @pytest.mark.parametrize("where", ["i/price = 10", "i//price = 10", "i/* = 10"])
    def test_call_metadata_is_not_compared(self, where):
        assert len(self.select(f"Select i from i in C//it where {where};")) == 1

    @pytest.mark.parametrize("where", ["i/price = 19x0", "i//price = 19x0", "i/price = 190"])
    def test_params_and_handlers_are_not_read(self, where):
        assert len(self.select(f"Select i from i in C//it where {where};")) == 0

    def test_text_step_reads_the_logical_text(self):
        assert self.select("Select i/price/text() from i in C//it;").texts() == ["10"]

    def test_params_stay_out_of_descendant_steps(self):
        assert len(self.select("Select i from i in C//it where i/price//value = 9;")) == 0

    def test_explicit_params_are_still_addressable(self):
        result = self.select("Select i/price/axml:sc/axml:params from i in C//it;")
        assert result.texts() == ["9"]

    @WALKS
    def test_a_metadata_step_reaches_only_its_context(self, walk):
        doc = parse_document(self.DOC)
        params = next(e for e in doc.root.iter_elements() if e.name.local == "params")
        with _mode(walk):
            assert parse_path("C//axml:params").evaluate(doc) == []
            assert parse_path("//axml:params").evaluate(params) == [params]
            for where in ("", " where i/axml:param/axml:value = 9"):
                query = parse_select(f"Select i from i in C//axml:params{where};")
                assert evaluate_select(query, doc).bindings == []

    def test_log_readers_keep_the_raw_text(self):
        price = parse_document(self.DOC).root.first_child("it").first_child("price")
        assert price.text_content() == "19x0"


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


# ---------------------------------------------------------------------------
# Value postings across writes
# ---------------------------------------------------------------------------
#
# ``i/name = literal`` is answered from per-name value maps the index
# keeps between queries (``StructuralIndex.value_join``): the first
# query-time structure of this store that outlives a write.  One document
# lives through a drawn sequence of Selects and writes — every writer
# the node layer has — and each Select must still agree with the
# per-candidate reference, which reads text by its own rule.

EQUALITIES = (
    "i/a = 1", "i/a = x", "i/b = 10", "i/b = 12", "i/c = b", "i/p:a = 2", "i/a/text() = 1",
    "i/b = NaN", "i/a = 1_0", "i/c = 2 or i/a = x", "i/a = 1 and i/b = 2",
)
EQUALITY_SOURCES = ("R//a", "R//b", "R//*", "R/*", "R//axml:sc", "R")
WRITES = (
    "append", "insert_at", "detach", "clone_attach", "materialize", "reinsert", "restore",
)


def _fresh_node(data, doc: Document):
    """A new text node, or a new element with a drawn name and text."""
    if data.draw(st.integers(0, 3)) == 0:
        return Text(doc, data.draw(st.sampled_from(TEXTS)))
    element = Element(doc, data.draw(st.sampled_from(NAMES + ("axml:sc",))))
    if data.draw(st.booleans()):
        element.append(Text(doc, data.draw(st.sampled_from(TEXTS))))
    return element


def _adoptable(data, doc: Document, node):
    """An element *node* may be attached under (no cycle), or None."""
    targets = [
        element for element in nodes_of(doc)
        if element is not node and node not in element.ancestors()
    ]
    return data.draw(st.sampled_from(targets)) if targets else None


def _write(data, doc: Document, kind: str, state: dict) -> None:
    attached = [e for e in doc.root.iter_elements() if e is not doc.root]
    if kind in ("append", "insert_at"):
        detached = [e for e in nodes_of(doc) if e.parent is None and e is not doc.root]
        if detached and data.draw(st.booleans()):
            node = data.draw(st.sampled_from(detached))  # re-attach a subtree
        else:
            node = _fresh_node(data, doc)
        parent = _adoptable(data, doc, node)
        if parent is None:
            return
        if kind == "append":
            parent.append(node)
        else:
            parent.insert_at(data.draw(st.integers(0, len(parent.children))), node)
    elif kind == "detach":
        texts = [n for n in doc.root.iter() if isinstance(n, Text)]
        pool = attached + texts
        if pool:
            data.draw(st.sampled_from(pool)).detach()
    elif kind == "clone_attach":
        source = data.draw(st.sampled_from(nodes_of(doc)))
        copy = source.clone_into(doc)
        parent = _adoptable(data, doc, copy)
        if parent is not None:
            parent.append(copy)
    elif kind == "materialize":
        value = data.draw(st.sampled_from(TEXTS))
        tree = FragmentNode(data.draw(st.sampled_from(NAMES)), {})
        tree.new_element(data.draw(st.sampled_from(NAMES)), {}).new_text(value)
        tree.new_text(value)
        action = UpdateAction(
            ActionType.INSERT, parse_select("Select i from i in R;"), (Fragment(tree),)
        )
        node = _materialize(doc, action, 0)
        parent = _adoptable(data, doc, node)
        if parent is not None:
            parent.append(node)
    elif kind == "reinsert":
        if attached and data.draw(st.booleans()):  # delete now, compensate later
            target = data.draw(st.sampled_from(attached))
            query = SelectQuery((VarPath("i", PathExpr(())),), "i",
                                NodeRef(repr(target.node_id), "R"))
            result = apply_action(doc, UpdateAction(ActionType.DELETE, query))
            state["pending"].append(compensating_actions_for(result, "R"))
        elif state["pending"]:
            for action in state["pending"].pop():
                try:
                    apply_action(doc, action, tolerate_missing_targets=True)
                except XmlStructureError:  # a second live node would get an id
                    assert any(_live(doc, NodeId.parse(raw)) for raw in _restored_ids(action))
                    event("a compensation found a restored id held by a live node")
    else:
        doc.restore_from(state["snapshot"])
        state["pending"].clear()  # their targets are gone


def _restored_ids(action: UpdateAction) -> List[str]:
    return [raw for fragment in action.data
            for raw in re.findall(r'repro:id="([^"]+)"', fragment.text)]


def _live(doc: Document, node_id: NodeId) -> bool:
    return doc.has_node(node_id) and doc.get_node(node_id).is_attached()


def test_a_compensation_cannot_give_a_live_nodes_id_to_a_second_node():
    """The shrunk write sequence of the value-postings property below,
    pinned here because an ``@example`` cannot supply ``st.data()``
    draws: delete a row, attach the deleted node again, then compensate
    the delete.  The re-insert would leave two live elements with the
    row's id (``value_join`` found one, the walk the other); it raises."""
    doc = parse_document("<R><a><b>x</b></a><a><b>y</b></a></R>", name="R")
    row = doc.root.first_child("a")
    query = SelectQuery((VarPath("i", PathExpr(())),), "i", NodeRef(repr(row.node_id), "R"))
    result = apply_action(doc, UpdateAction(ActionType.DELETE, query))
    doc.root.insert_at(0, row)
    (compensation,) = compensating_actions_for(result, "R")
    assert _restored_ids(compensation) == [repr(row.node_id), repr(row.children[0].node_id)]
    with pytest.raises(XmlStructureError, match="held by a live node"):
        apply_action(doc, compensation, tolerate_missing_targets=True)
    assert doc.get_node(row.node_id) is row
    assert [e for e in doc.root.iter_elements() if e.node_id == row.node_id] == [row]
    where = parse_select("Select i from i in R//a where i/b = x;")
    assert [b.context for b in evaluate_select(where, doc).bindings] == [row]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_value_postings_match_the_reference_across_writes(data):
    """The same Selects before and after every write: a map one of them
    built must be dropped by any write that could make it stale."""
    doc = build_document(data)
    for _ in range(data.draw(st.integers(1, 4))):  # rows the equalities can find
        row = doc.root.new_element("a")
        for name in data.draw(st.lists(st.sampled_from(("a", "b", "c", "p:a")), max_size=3)):
            holder = row
            for _ in range(data.draw(st.integers(0, 2))):  # inside nested calls
                holder = holder.new_element("axml:sc")
            holder.new_element(name).new_text(data.draw(st.sampled_from(TEXTS)))
    state = {"snapshot": doc.clone_tree(), "pending": []}
    equality = st.sampled_from(EQUALITIES).map(_where)
    queries = []
    for _ in range(data.draw(st.integers(1, 3))):
        where = data.draw(st.one_of(equality, equality, equality, conditions))
        if data.draw(st.integers(0, 9)) == 9:
            where = poison(where, data.draw(st.integers(0, 4)))
        queries.append(SelectQuery(
            (VarPath("i", data.draw(paths(terminals=("",)))),), "i",
            parse_path(data.draw(st.sampled_from(EQUALITY_SOURCES))), where,
        ))
    joins = comparisons = 0
    real_join = StructuralIndex.value_join

    def counting_join(index, *args):
        nonlocal joins
        joins += 1
        return real_join(index, *args)

    for step in range(data.draw(st.integers(1, 6)) + 1):
        if step:
            kind = data.draw(st.sampled_from(WRITES))
            kept = dict(doc.index._values)
            _write(data, doc, kind, state)
            if any(doc.index._values.get(name) is maps for name, maps in kept.items()):
                event(f"a value map outlived a write ({kind})")
        for query in queries:
            comparisons += len(_comparisons_of(query.where))
            expected = outcome(lambda meter: ref_select(query, doc, meter, True))
            with mock.patch.object(StructuralIndex, "value_join", counting_join):
                got = outcome(lambda meter: [
                    (b.context, b.selected) for b in evaluate_select(query, doc, meter).bindings
                ])
            same(got, expected)
    event(f"value_join share of comparisons: {min(joins / comparisons, 1.0):.1f}")


def _comparisons_of(condition) -> list:
    if isinstance(condition, Comparison):
        return [condition]
    return [leaf for part in condition.parts for leaf in _comparisons_of(part)]


# ---------------------------------------------------------------------------
# A //name step started from the value hits, across writes
# ---------------------------------------------------------------------------
#
# ``var/child = literal``, alone or leading an ``and``, lets the index
# start a ``//name`` source step from the value hits
# (``StructuralIndex.seek``) when every element of that local name is a
# child of the context with the step's prefix; the meter is then charged
# from a per-name ``_child_count`` total that the attach/detach climb
# keeps.  Rows under one parent — with prefixed twins, ``axml:sc``
# containers, call metadata, nested rows, a second parent and hits under
# other names — live through drawn writes that break and restore that
# shape, and after every write each Select must agree with the
# per-candidate reference (bindings by identity and order, meter,
# ``query_*`` counters, exceptions).

ROW_VALUES = ("1", "x", " 1 ", "2")
ROW_CHILDREN = ("b", "b", "b", "c", "p:b", "sc", "params")
DRIVE_SOURCES = ("R//a", "R//a", "R//a", "R//p:a", "R/g//a", "R//axml:sc", "R//c",
                 "R//axml:params")
DRIVE_WHERES = (
    "i/b = 1", "i/b = 1", "i/b = x", "i/b/text() = 1", "i/p:b = 1", "i/b = 1 and i/c = 2",
    "i/b = 1 and i/b != x", "i/b = 1 and i/c = 1 and i/b/text() < 5", "i/b = 1 or i/c = 1",
    "i/c = 1 or i/b = 1", "i/b = 2 and i/c = 1 or i/b = 1",
)
DRIVE_WRITES = WRITES + ("row", "row", "params", "detach_row", "move_row", "loose_row")


def _new_row(data, doc: Document, parent: Optional[Element], name: str, tidy: bool) -> Element:
    """A row *name* under *parent* (detached when None) with drawn
    children: ``b``/``c`` values, maybe through an ``axml:sc`` or inside
    its params, maybe (unless *tidy*) a prefixed ``p:b`` or a row."""
    row = Element(doc, name, {"rank": data.draw(st.sampled_from(("1", "2")))})
    if parent is not None:
        parent.append(row)
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(ROW_CHILDREN if tidy else ROW_CHILDREN + ("row",)))
        holder = row
        if kind == "sc":  # a hit through a transparent call
            holder, kind = row.new_element("axml:sc"), "b"
        elif kind == "params":  # a hit inside call metadata: not content
            holder, kind = row.new_element("axml:sc").new_element("axml:params"), "b"
        elif kind == "row":  # a row inside a row
            holder, kind = row.new_element("a"), "b"
        holder.new_element(kind).new_text(data.draw(st.sampled_from(ROW_VALUES)))
    return row


def build_rows_document(data) -> Document:
    """Rows under the root; a *tidy* document (drawn half the time) keeps
    every ``a`` a root child, so the drive answers from the start."""
    doc = Document("R")
    root = doc.create_root(QName("R"))
    tidy = data.draw(st.booleans())
    parents = [root, root, root]
    if data.draw(st.booleans()):
        g = root.new_element("g")  # a second parent: a non-root context
        if not tidy:
            parents.append(g)
    for _ in range(data.draw(st.integers(1, 6))):
        name = "a" if tidy else data.draw(st.sampled_from(("a", "a", "a", "p:a")))
        _new_row(data, doc, data.draw(st.sampled_from(parents)), name, tidy)
    if data.draw(st.booleans()):  # a hit whose parent has another name
        root.new_element("c").new_element("b").new_text(data.draw(st.sampled_from(ROW_VALUES)))
    if data.draw(st.booleans()):  # call metadata as a child of the context
        root.new_element("axml:params").new_element("b").new_text("1")
    return doc


def _drive_write(data, doc: Document, kind: str, state: dict) -> None:
    rows = [e for e in doc.root.iter_elements() if e.name.local == "a"]
    if kind == "row":  # a new row, usually where the rows are
        parent = data.draw(st.sampled_from([doc.root, doc.root] + nodes_of(doc)))
        _new_row(data, doc, parent, data.draw(st.sampled_from(("a", "a", "p:a"))), False)
    elif kind == "loose_row":  # a new row left detached, holding a hit
        _new_row(data, doc, None, "a", True).new_element("b").new_text("1")
    elif kind in ("detach_row", "move_row") and rows:
        row = data.draw(st.sampled_from(rows))
        row.detach()
        if kind == "move_row":
            parent = _adoptable(data, doc, row)
            if parent is not None:
                parent.append(row)
    elif kind == "params":  # call metadata joins or leaves an element
        params = [e for e in doc.root.iter_elements() if e.name.local == "params"]
        if params and data.draw(st.booleans()):
            data.draw(st.sampled_from(params)).detach()
        else:
            meta = data.draw(st.sampled_from(nodes_of(doc))).new_element("axml:params")
            meta.new_element("b").new_text("1")
    elif kind in WRITES:
        _write(data, doc, kind, state)


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_a_step_started_from_value_hits_matches_the_reference_across_writes(data):
    doc = build_rows_document(data)
    state = {"snapshot": doc.clone_tree(), "pending": []}
    queries = []
    for _ in range(data.draw(st.integers(1, 4))):
        where = _where(data.draw(st.sampled_from(DRIVE_WHERES)))
        if data.draw(st.integers(0, 9)) == 9:
            where = poison(where, data.draw(st.integers(1, 4)))
        queries.append(SelectQuery(
            (VarPath("i", data.draw(paths(terminals=("",)))),), "i",
            parse_path(data.draw(st.sampled_from(DRIVE_SOURCES))), where,
        ))
    seeks: Counter = Counter()
    real_seek = StructuralIndex.seek

    def counting_seek(index, *args):
        found = real_seek(index, *args)
        seeks["declined" if found is None else "found"] += 1
        return found

    for step in range(data.draw(st.integers(1, 6)) + 1):
        if step:
            _drive_write(data, doc, data.draw(st.sampled_from(DRIVE_WRITES)), state)
        for query in queries:
            expected = outcome(lambda meter: ref_select(query, doc, meter, True))
            with mock.patch.object(StructuralIndex, "seek", counting_seek):
                got = outcome(lambda meter: [
                    (b.context, b.selected) for b in evaluate_select(query, doc, meter).bindings
                ])
            same(got, expected)
    for verdict in seeks:
        event(f"seek {verdict}")


def test_seek_entries_do_not_outlive_their_elements():
    """An entry ``StructuralIndex.seek`` keeps for a name goes with the
    elements it counts: ``clear()`` drops it, so it holds no dropped tree
    (here the context is a detached subtree)."""
    doc = parse_document("<R><g><a><b>1</b></a><a><b>2</b></a></g></R>", name="R")
    g = doc.root.first_child("g")
    g.detach()
    meter = TraversalMeter()
    found = parse_path("//a").evaluate(g, meter, lambda nodes: nodes, (QName("b"), "1", 1.0, None))
    assert found == [g.children[0]] and meter.nodes_traversed == g._logical_count + 2
    assert doc.index._seeks["a"][0] is g
    doc.index.clear()
    assert not doc.index._seeks
