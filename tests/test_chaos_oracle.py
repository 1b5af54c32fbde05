"""The atomicity oracle and its mutation proofs.

The oracle is only trustworthy if it *fails* when the protocol is
broken.  Each mutation here disables one piece of the paper's atomicity
machinery — compensation replay, exactly-once application, chain
cleanup — and the test asserts the oracle flags exactly the matching
violation kind.  A final block pins determinism: the same seed produces
a byte-identical run summary.
"""

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
from repro.chaos.oracle import scan_markers
from repro.query.parser import parse_action
from repro.query.update import apply_action
from tests.chaos_mutations import mutated

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
    def test_scan_markers_finds_chaos_elements(self):
        xml = (
            '<doc><items><chaos txn="T001" step="s0"/>'
            '<chaos txn="T002" step="s1"></chaos></items></doc>'
        )
        assert scan_markers(xml) == [("T001", "s0"), ("T002", "s1")]

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
