"""Tests for the concurrent transaction scheduler and the T1 throughput
engine: determinism, admission control, conflict-retry span shape, and
outcome accounting."""

import pytest

from repro.obs import stable_json
from repro.sim.rng import SeededRng, stable_seed
from repro.sim.scheduler import (
    ABORTED_FAILURE,
    COMMITTED,
    TransactionScheduler,
    TxnSpec,
)
from repro.sim.throughput import (
    THROUGHPUT_MIX,
    build_throughput_cluster,
    demo_conflict_retry,
    run_throughput_point,
    throughput_sweep,
)
from repro.sim.workload import (
    generate_contended_transaction,
    poisson_arrival_times,
)


def _insert_op(doc_name: str) -> str:
    return (
        '<action type="insert"><data><mark/></data>'
        f"<location>Select c from c in {doc_name};</location></action>"
    )


def _simple_cluster(seed: int = 3):
    network, peers = build_throughput_cluster(seed, peer_count=1, items=4)
    doc_name = next(iter(peers["AP1"].documents))
    return network, peers, doc_name


class TestSchedulerBasics:
    def test_validates_parameters(self):
        network, _, _ = _simple_cluster()
        with pytest.raises(ValueError):
            TransactionScheduler(network, max_inflight=0)
        with pytest.raises(ValueError):
            TransactionScheduler(network, max_attempts=0)

    def test_single_txn_commits(self):
        network, _, doc_name = _simple_cluster()
        scheduler = TransactionScheduler(network, seed=1)
        scheduler.submit(TxnSpec("t0", "AP1", (_insert_op(doc_name),)))
        results = scheduler.run()
        assert [r.status for r in results] == [COMMITTED]
        assert results[0].attempts == 1
        assert results[0].retries == 0
        assert results[0].latency > 0

    def test_fail_at_aborts_without_commit(self):
        network, peers, doc_name = _simple_cluster()
        scheduler = TransactionScheduler(network, seed=1)
        ops = (_insert_op(doc_name), _insert_op(doc_name))
        scheduler.submit(TxnSpec("bad", "AP1", ops, fail_at=1))
        results = scheduler.run()
        assert results[0].status == ABORTED_FAILURE
        assert scheduler.outcome_counts() == {ABORTED_FAILURE: 1}
        # Compensation removed the first insert again.
        doc = peers["AP1"].documents[doc_name]
        assert "<mark" not in doc.to_xml()

    def test_outcome_counters_in_metrics(self):
        network, _, doc_name = _simple_cluster()
        scheduler = TransactionScheduler(network, seed=1)
        scheduler.submit(TxnSpec("ok", "AP1", (_insert_op(doc_name),)))
        scheduler.submit(
            TxnSpec("bad", "AP1", (_insert_op(doc_name),), fail_at=0),
            at_time=1.0,
        )
        scheduler.run()
        metrics = network.metrics
        assert metrics.get("sched_committed") == 1
        assert metrics.get("sched_aborted_failure") == 1
        assert metrics.get("sched_admitted") == 2

    def test_empty_operations_commit_immediately(self):
        network, _, _ = _simple_cluster()
        scheduler = TransactionScheduler(network, seed=1)
        scheduler.submit(TxnSpec("noop", "AP1", ()))
        assert scheduler.run()[0].status == COMMITTED


class TestAdmissionControl:
    def test_inflight_never_exceeds_cap(self):
        network, _, doc_name = _simple_cluster()
        scheduler = TransactionScheduler(network, max_inflight=2, seed=1)
        for i in range(6):
            scheduler.submit(TxnSpec(f"t{i}", "AP1", (_insert_op(doc_name),)))
        scheduler.run()
        peak = network.metrics.histogram("inflight").max
        assert peak is not None and peak <= 2
        assert network.metrics.get("sched_queued") == 4
        assert not scheduler._backlog
        assert scheduler._inflight == 0

    def test_backlog_drains_fifo(self):
        network, _, doc_name = _simple_cluster()
        scheduler = TransactionScheduler(network, max_inflight=1, seed=1)
        for i in range(4):
            scheduler.submit(TxnSpec(f"t{i}", "AP1", (_insert_op(doc_name),)))
        # Results are recorded as transactions finish.
        assert [r.label for r in scheduler.run()] == ["t0", "t1", "t2", "t3"]


class TestConflictRetry:
    def test_conflict_retried_to_commit_with_sibling_attempt_spans(self):
        # Two clients hammer one hot spot on one OCC peer: the loser's
        # first attempt conflicts at commit, backs off, and a fresh
        # attempt commits.
        network, peers = build_throughput_cluster(11, peer_count=1, items=4)
        document = next(iter(peers["AP1"].documents.values()))
        scheduler = TransactionScheduler(
            network, max_inflight=2, seed=stable_seed(11, "demo")
        )
        spans = network.spans.record()
        rng = SeededRng(stable_seed(11, "demo-workload"))
        for client in range(2):
            ops = generate_contended_transaction(
                rng, document, 3, hot_fraction=1.0, mix=THROUGHPUT_MIX
            )
            scheduler.submit(TxnSpec(f"hot{client}", "AP1", tuple(ops)))
        results = scheduler.run()

        assert all(r.status == COMMITTED for r in results)
        retried = [r for r in results if r.attempts > 1]
        assert retried, "expected at least one conflict-retried transaction"
        assert network.metrics.get("sched_retries") >= 1

        # Span shape: one detached client span per logical transaction,
        # attempt txn spans as siblings underneath it.
        client_spans = {s.attrs["label"]: s for s in spans.by_kind("client")}
        assert set(client_spans) == {"hot0", "hot1"}
        for result in results:
            children = spans.children_of(client_spans[result.label])
            attempt_spans = [c for c in children if c.kind == "transaction"]
            assert len(attempt_spans) == result.attempts
            assert [c.attrs["attempt"] for c in attempt_spans] == [
                str(i + 1) for i in range(result.attempts)
            ]
        # Each attempt used a fresh txn id.
        for result in retried:
            assert len(set(result.txn_ids)) == result.attempts

    def test_exhausted_retries_abort_with_conflict(self):
        network, peers = build_throughput_cluster(11, peer_count=1, items=4)
        document = next(iter(peers["AP1"].documents.values()))
        scheduler = TransactionScheduler(
            network, max_inflight=2, max_attempts=1,
            seed=stable_seed(11, "demo"),
        )
        rng = SeededRng(stable_seed(11, "demo-workload"))
        for client in range(2):
            ops = generate_contended_transaction(
                rng, document, 3, hot_fraction=1.0, mix=THROUGHPUT_MIX
            )
            scheduler.submit(TxnSpec(f"hot{client}", "AP1", tuple(ops)))
        results = scheduler.run()
        counts = scheduler.outcome_counts()
        assert counts.get("aborted_conflict", 0) >= 1
        assert all(r.attempts == 1 for r in results)

    def test_demo_conflict_retry_commits_eventually(self):
        rows = demo_conflict_retry(seed=11)
        assert [r["status"] for r in rows] == ["committed", "committed"]
        assert any(r["attempts"] > 1 for r in rows)


class TestArrivals:
    def test_poisson_arrival_times_deterministic(self):
        a = poisson_arrival_times(SeededRng(5), rate=10.0, count=8)
        b = poisson_arrival_times(SeededRng(5), rate=10.0, count=8)
        assert a == b
        assert a == sorted(a)
        assert all(t > 0.0 for t in a)
        with pytest.raises(ValueError):
            poisson_arrival_times(SeededRng(5), rate=0.0, count=3)

    def test_open_loop_runs_all_specs(self):
        network, _, doc_name = _simple_cluster()
        scheduler = TransactionScheduler(network, max_inflight=2, seed=9)
        specs = [
            TxnSpec(f"t{i}", "AP1", (_insert_op(doc_name),)) for i in range(5)
        ]
        times = scheduler.submit_open_loop(specs, rate=50.0)
        assert len(times) == 5 and times == sorted(times)
        results = scheduler.run()
        assert len(results) == 5

    def test_closed_loop_runs_whole_plan(self):
        network, _, doc_name = _simple_cluster()
        scheduler = TransactionScheduler(network, max_inflight=2, seed=9)
        scheduler.run_closed_loop(
            clients=2,
            txns_per_client=3,
            make_spec=lambda c, i: TxnSpec(
                f"c{c}t{i}", "AP1", (_insert_op(doc_name),)
            ),
            think_time=0.01,
        )
        results = scheduler.run()
        assert len(results) == 6
        assert {r.label for r in results} == {
            f"c{c}t{i}" for c in range(2) for i in range(3)
        }


class TestThroughputEngine:
    def test_point_row_is_consistent(self):
        row = run_throughput_point(
            7, clients=2, hot_fraction=0.5, fail_rate=0.0,
            txns_per_client=2, items=6,
        )
        assert row["txns"] == 4
        assert row["committed"] + row["conflict"] + row["failure"] == row["txns"]
        assert row["tput"] > 0
        assert row["p50_lat"] is not None

    def test_sweep_same_seed_byte_identical(self):
        a = throughput_sweep(seed=7, smoke=True)
        b = throughput_sweep(seed=7, smoke=True)
        assert stable_json(a.to_dict()) == stable_json(b.to_dict())

    def test_sweep_different_seed_differs(self):
        a = throughput_sweep(seed=7, smoke=True)
        b = throughput_sweep(seed=8, smoke=True)
        assert stable_json(a.to_dict()) != stable_json(b.to_dict())

    def test_smoke_sweep_shape(self):
        table = throughput_sweep(seed=7, smoke=True)
        assert len(table.rows) == 4  # clients (1,2) x hot (0.0,0.9)
        assert [row["clients"] for row in table.rows] == [1, 1, 2, 2]
        assert all(row["committed"] <= row["txns"] for row in table.rows)
