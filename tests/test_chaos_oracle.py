"""The atomicity oracle and its mutation proofs.

The oracle is only trustworthy if it *fails* when the protocol is
broken.  Each mutation here disables one piece of the paper's atomicity
machinery — compensation replay, exactly-once application, chain
cleanup — and the test asserts the oracle flags exactly the matching
violation kind.  A final block pins determinism: the same seed produces
a byte-identical run summary.
"""

from hypothesis import given, settings, strategies as st

from repro.chaos import (
    AtomicityOracle,
    ChaosConfig,
    ExpectedEffect,
    FaultEvent,
    FaultPlan,
    VIOLATION_KINDS,
    run_chaos,
    summary_text,
)
from repro.chaos.oracle import marker_counts, unordered_digest
from repro.query.parser import parse_action
from repro.query.update import apply_action
from repro.xmlstore.nodes import Document
from repro.xmlstore.parser import parse_document
from repro.xmlstore.serializer import serialize
from tests.chaos_mutations import mutated


def _canonical_xml(xml: str) -> str:
    """The reference for :func:`unordered_digest` (the oracle's former
    ``ElementTree`` fallback): recursively sort every element's
    children by their own serialization, trailing text included."""
    import xml.etree.ElementTree as ElementTree

    def norm(element) -> None:
        for child in element:
            norm(child)
        element[:] = sorted(
            element,
            key=lambda c: ElementTree.tostring(c, encoding="unicode"),
        )

    root = ElementTree.fromstring(xml)
    norm(root)
    return ElementTree.tostring(root, encoding="unicode")

# A plan with one late service fault: the victim transaction's work at
# AP2 is done (and logged) before the fault aborts it, so compensation
# has real entries to replay — exactly what skip_undo sabotages.
_LATE_FAULT = FaultPlan(
    (FaultEvent(kind="service_fault", peer="AP2", method="S2",
                point="after_execute"),)
)


class TestMutationsTripTheOracle:
    def test_skip_undo_flags_compensation_missing(self):
        config = ChaosConfig(seed=3, txns=6, fault_rate=0.0)
        with mutated("skip_undo"):
            result = run_chaos(config, plan=_LATE_FAULT)
        kinds = {v.kind for v in result.violations}
        assert "compensation_missing" in kinds, result.violations

    def test_double_apply_flags_effect_duplicated(self):
        config = ChaosConfig(seed=3, txns=6, fault_rate=0.0)
        with mutated("double_apply"):
            result = run_chaos(config)
        kinds = {v.kind for v in result.violations}
        assert "effect_duplicated" in kinds, result.violations

    def test_stale_chain_flags_orphan_chain(self):
        config = ChaosConfig(seed=3, txns=6, fault_rate=0.0)
        with mutated("stale_chain"):
            result = run_chaos(config)
        kinds = {v.kind for v in result.violations}
        assert "orphan_chain" in kinds, result.violations

    def test_unmutated_twin_runs_are_clean(self):
        # The same schedules without the mutation pass the oracle — the
        # failures above are caused by the mutation, not the faults.
        assert run_chaos(ChaosConfig(seed=3, txns=6, fault_rate=0.0),
                         plan=_LATE_FAULT).ok
        assert run_chaos(ChaosConfig(seed=3, txns=6, fault_rate=0.0)).ok

    def test_violations_are_replayable(self):
        config = ChaosConfig(seed=3, txns=6, fault_rate=0.0)
        with mutated("skip_undo"):
            first = run_chaos(config, plan=_LATE_FAULT)
            second = run_chaos(config, plan=_LATE_FAULT)
        assert [v.to_dict() for v in first.violations] == [
            v.to_dict() for v in second.violations
        ]


class TestDeterminism:
    def test_same_seed_same_summary_bytes(self):
        config = ChaosConfig(seed=11, txns=10, fault_rate=0.3)
        assert summary_text(run_chaos(config)) == summary_text(run_chaos(config))

    def test_different_seed_different_schedule(self):
        a = run_chaos(ChaosConfig(seed=1, txns=10, fault_rate=0.5))
        b = run_chaos(ChaosConfig(seed=2, txns=10, fault_rate=0.5))
        assert a.plan.to_dict() != b.plan.to_dict()


class TestOracleUnit:
    def test_marker_counts_finds_chaos_elements(self):
        document = parse_document(
            '<doc><items><chaos txn="T001" step="s0"/>'
            '<chaos txn="T002" step="s1"></chaos><chaos txn="T001" step="s0"/>'
            '<chaos step="s2"/></items><xchaos txn="T003" step="s0"/></doc>'
        )
        assert marker_counts(document.root) == {
            ("T001", "s0"): 2, ("T002", "s1"): 1, ("", "s2"): 1,
        }
        # Only the attached tree counts: a detached marker is gone.
        document.root.first_child("items").first_child("chaos").detach()
        assert marker_counts(document.root)[("T001", "s0")] == 1

    def test_missing_expected_effect_is_flagged(self):
        result = run_chaos(ChaosConfig(seed=5, txns=4, fault_rate=0.0))
        committed = next(r.label for r in result.results if r.committed)
        bogus = ExpectedEffect(
            peer="AP1", document="D1", label=committed, step="s999"
        )
        oracle = AtomicityOracle(
            outcomes={r.label: r.status for r in result.results},
            expected=list(result.expected) + [bogus],
            txn_ids={r.label: list(r.txn_ids) for r in result.results},
        )
        kinds = {v.kind for v in oracle.check(result.cluster.peers)}
        assert "effect_missing" in kinds

    def test_unknown_marker_is_orphan_effect(self):
        result = run_chaos(ChaosConfig(seed=5, txns=4, fault_rate=0.0))
        document = result.cluster.peer("AP1").documents["D1"].document
        apply_action(document, parse_action(
            '<action type="insert"><data>'
            '<chaos txn="GHOST" step="s0"/></data>'
            "<location>Select d from d in D1//items;</location></action>"
        ))
        kinds = {v.kind for v in result.oracle().check(result.cluster.peers)}
        assert "orphan_effect" in kinds

    def test_open_transaction_leaves_residue(self):
        result = run_chaos(ChaosConfig(seed=5, txns=4, fault_rate=0.0))
        origin = result.cluster.peer("C1")
        txn = origin.begin_transaction()
        origin.submit(
            txn.txn_id,
            '<action type="insert"><data><mark/></data>'
            "<location>Select d from d in O1//items;</location></action>",
        )
        kinds = {v.kind for v in result.oracle().check(result.cluster.peers)}
        assert "unfinished_context" in kinds
        assert "log_residue" in kinds

    def test_violation_kinds_are_documented(self):
        # docs/CHAOS.md enumerates the predicates; keep the constant in
        # sync with the set the oracle can actually emit.
        assert set(VIOLATION_KINDS) == {
            "effect_missing",
            "effect_duplicated",
            "compensation_missing",
            "orphan_effect",
            "log_residue",
            "unfinished_context",
            "outcome_mismatch",
            "orphan_chain",
            "wal_tail_inconsistent",
            "replica_diverged",
            "shard_lost",
            "shard_duplicated",
            "directory_stale",
        }


# -- the order-insensitive digest against its ElementTree reference --------

_NAMES = st.sampled_from(["a", "b", "c"])
_VALUES = st.text(alphabet="xy &<>\"'", max_size=3)
_TEXT = st.tuples(st.just("text"), _VALUES)


def _element(children):
    return st.tuples(
        st.just("element"), _NAMES,
        st.dictionaries(st.sampled_from(["k", "m"]), _VALUES, max_size=2),
        st.lists(children, max_size=4),
    )


_TREES = st.recursive(
    _element(_TEXT), lambda children: _element(st.one_of(_TEXT, children)), max_leaves=10
)


def _build(spec) -> Document:
    document = Document("t")

    def add(parent, spec) -> None:
        if spec[0] == "text":
            parent.new_text(spec[1])
            return
        _, name, attributes, children = spec
        if parent is None:
            element = document.create_root(name, attributes)
        else:
            element = parent.new_element(name, attributes)
        for child in children:
            add(element, child)

    add(None, spec)
    return document


def _shuffled(spec, rng):
    if spec[0] == "text":
        return spec
    kind, name, attributes, children = spec
    children = [_shuffled(child, rng) for child in children]
    rng.shuffle(children)
    return (kind, name, attributes, children)


class TestUnorderedDigest:
    @settings(max_examples=300, deadline=None)
    @given(_TREES, _TREES, st.randoms(use_true_random=False))
    def test_agrees_with_the_elementtree_reference(self, first, second, rng):
        # Random pairs, and sibling permutations (text runs move too, so
        # a permutation may or may not keep the multiset): the digests
        # are equal exactly when the reference forms are.
        for other in (second, _shuffled(first, rng)):
            a, b = _build(first), _build(other)
            assert (unordered_digest(a.root) == unordered_digest(b.root)) == (
                _canonical_xml(serialize(a)) == _canonical_xml(serialize(b))
            )

    def test_sibling_order_does_not_count_but_content_does(self):
        # A child element moves with the text that follows it.
        digest = unordered_digest(parse_document("<r><i>1</i><i>2</i>t<j k='v'/></r>").root)
        for same in ("<r><j k='v'/><i>2</i>t<i>1</i></r>", "<r><i>2</i>t<j k='v'/><i>1</i></r>"):
            assert unordered_digest(parse_document(same).root) == digest
        for other in ("<r><i>1</i>t<i>2</i><j k='v'/></r>", "<r><i>1</i><i>2</i>t<j k='w'/></r>",
                      "<r><i>1</i><i>2</i>t<j k='v'/><j k='v'/></r>"):
            assert unordered_digest(parse_document(other).root) != digest
