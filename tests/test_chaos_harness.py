"""The chaos harness itself: planner, network hook, scheduler InvokeOp,
settlement, shrink + repro files, sweeps and the CLI surface."""

import json
import os
import re
from dataclasses import replace

import pytest

from repro.chaos import (
    CHAOS_FAULT,
    ChaosConfig,
    FaultEvent,
    FaultPlan,
    FaultPlanner,
    build_chaos_cluster,
    chaos_sweep,
    describe_plan,
    load_repro_file,
    replay_repro_file,
    run_chaos,
    shrink_and_report,
    shrink_plan,
    write_repro_file,
)
from repro.chaos.planner import FAULT_KINDS
from repro.chaos.runner import _cleanup_durability
from repro.cli import main
from repro.p2p.network import SimNetwork
from repro.sim.metrics import MetricsCollector
from repro.sim.scheduler import InvokeOp
from tests.chaos_mutations import mutated


def _planner(seed, fault_rate=0.5, txns=20):
    # arrival_rate = txns keeps the horizon at 3.0 virtual seconds.
    config = ChaosConfig(
        seed=seed, txns=txns, fault_rate=fault_rate, arrival_rate=float(txns)
    )
    return FaultPlanner(config, [f"AP{i}" for i in range(1, 7)])


class TestFaultPlanner:
    def test_same_seed_same_plan(self):
        assert _planner(9).plan() == _planner(9).plan()

    def test_event_count_tracks_fault_rate(self):
        assert len(_planner(1, fault_rate=0.0).plan()) == 0
        assert len(_planner(1, fault_rate=0.5, txns=20).plan()) == 10

    def test_events_target_providers_only(self):
        plan = _planner(4, fault_rate=1.0).plan()
        for event in plan.events:
            if event.peer:
                assert event.peer.startswith("AP")
            if event.trigger:
                assert event.trigger.startswith("AP")

    def test_plan_json_round_trip(self):
        plan = _planner(4, fault_rate=1.0).plan()
        hopped = FaultPlan.from_dict(
            json.loads(json.dumps(plan.to_dict()))
        )
        assert hopped == plan

    def test_without_removes_one_event(self):
        plan = _planner(4, fault_rate=1.0).plan()
        smaller = plan.without(0)
        assert len(smaller) == len(plan) - 1
        assert smaller.events == plan.events[1:]

    def test_unknown_kind_cannot_be_built(self):
        # apply_plan and describe_plan index FAULT_KINDS without a check.
        with pytest.raises(ValueError, match="unknown fault event kind 'meteor'"):
            FaultEvent(kind="meteor")

    def test_every_fault_kind_is_documented_sampled_and_described(self):
        # A kind is one FAULT_KINDS row; the docs table and the planner
        # must know exactly the same set.
        docs = os.path.join(os.path.dirname(__file__), "..", "docs", "CHAOS.md")
        with open(docs, encoding="utf-8") as handle:
            fault_model = handle.read().split("## Fault model")[1].split("\n## ")[0]
        assert set(re.findall(r"^\| `(\w+)` \|", fault_model, re.M)) == set(FAULT_KINDS)
        everything = ChaosConfig(
            txns=40, fault_rate=1.0, crash_rate=0.3, checkpoint_every=4,
            replicas=1, sharding=True, shard_spares=2,
        )
        sampled = set()
        for seed in range(4):
            config = replace(everything, seed=seed)
            plan = FaultPlanner(config, [f"AP{i}" for i in range(1, 7)], ["SP1", "SP2"]).plan()
            sampled |= {event.kind for event in plan.events}
            assert len(describe_plan(plan)) == len(plan)
        assert sampled == set(FAULT_KINDS)


class TestMessageHook:
    def _network_pair(self):
        import tests.test_p2p_network as netmod

        network = SimNetwork()
        netmod.StubPeer("A", network)
        receiver = netmod.StubPeer("B", network)
        return network, receiver

    def test_drop_verdict_suppresses_delivery(self):
        network, receiver = self._network_pair()
        network.set_message_hook(lambda s, t, m: "drop")
        assert network.notify("A", "B", "hello") is False
        assert receiver.notifications == []
        assert network.metrics.get("messages_chaos_dropped") == 1

    def test_delay_verdict_defers_delivery(self):
        network, receiver = self._network_pair()
        network.set_message_hook(lambda s, t, m: 0.5)
        assert network.notify("A", "B", "hello") is True
        assert receiver.notifications == []  # not yet
        network.events.run_all()
        assert receiver.notifications == ["hello"]
        assert network.metrics.get("messages_chaos_delayed") == 1

    def test_none_verdict_and_no_hook_are_identical(self):
        network, receiver = self._network_pair()
        network.set_message_hook(lambda s, t, m: None)
        assert network.notify("A", "B", "x") is True
        network.set_message_hook(None)
        assert network.notify("A", "B", "y") is True
        assert receiver.notifications == ["x", "y"]
        assert network.metrics.get("messages_chaos_dropped") == 0


class TestHarnessRuns:
    def test_clean_run_has_zero_violations(self):
        result = run_chaos(ChaosConfig(seed=2, txns=8, fault_rate=0.0))
        assert result.ok
        assert all(r.committed for r in result.results)

    def test_faulty_run_still_atomic(self):
        result = run_chaos(ChaosConfig(seed=2, txns=12, fault_rate=0.5))
        assert result.ok, result.violations
        assert len(result.plan) > 0
        assert any(not r.committed for r in result.results)

    def test_invoke_ops_leave_subtree_markers(self):
        # Every committed InvokeOp marker lands once per subtree doc —
        # checked explicitly here, not just via the oracle.
        result = run_chaos(ChaosConfig(seed=2, txns=8, fault_rate=0.0))
        committed = {r.label for r in result.results if r.committed}
        seen = set()
        from repro.chaos.oracle import marker_counts

        for peer_id, peer in result.cluster.peers.items():
            for doc_name, document in peer.documents.items():
                for label, step in marker_counts(document.document.root):
                    seen.add((peer_id, doc_name, label, step))
        expected = {
            (e.peer, e.document, e.label, e.step)
            for e in result.expected
            if e.label in committed
        }
        assert seen == expected

    def test_settlement_leaves_no_protocol_state(self):
        result = run_chaos(ChaosConfig(seed=6, txns=10, fault_rate=0.5))
        for peer in result.cluster.peers.values():
            assert not peer.chain_views()
            assert len(peer.manager.log) == 0

    def test_handlers_mode_runs_clean(self):
        result = run_chaos(
            ChaosConfig(seed=4, txns=8, fault_rate=0.3, handlers=True)
        )
        assert result.ok, result.violations

    def test_unknown_mutation_rejected(self):
        # Mutations are a test helper, not a config knob.
        with pytest.raises(TypeError):
            ChaosConfig(mutate="nonsense")
        with pytest.raises(ValueError):
            with mutated("nonsense"):
                pass

    @pytest.mark.parametrize("handlers", [False, True])
    @pytest.mark.parametrize("shape, moves", [
        (dict(), False),
        (dict(replicas=1), True),
        (dict(sharding=True), True),
        (dict(sharding=True, shard_spares=2, replicas=1), True),
    ], ids=["plain", "replicas", "sharding", "sharding-spares-replicas"])
    def test_fault_policies_per_cluster_shape(self, handlers, shape, moves):
        # ChaosFault retries iff handlers; PeerDisconnected retries iff
        # documents have other holders — the same ordered list for every
        # marker service on *every* peer, spares included.
        config = ChaosConfig(providers=4, handlers=handlers, **shape)
        cluster, origins, providers = build_chaos_cluster(config)
        try:
            names = [CHAOS_FAULT] * handlers + ["PeerDisconnected"] * moves
            expected = {
                f"S{i}": [({name}, 2) for name in names] for i in range(1, 5)
            } if names else {}
            spares = [f"SP{k}" for k in range(1, config.shard_spares + 1)]
            assert list(cluster.peers) == origins + providers + spares
            for peer in cluster.peers.values():
                assert {
                    method: [(p.fault_names, p.retry_times) for p in policies]
                    for method, policies in peer.fault_policies.items()
                } == expected
        finally:
            _cleanup_durability(cluster)


class TestSettlementApis:
    def test_resolve_in_doubt_matches_decision(self):
        result = run_chaos(ChaosConfig(seed=2, txns=4, fault_rate=0.0))
        origin = result.cluster.peer("C1")
        txn = origin.begin_transaction()
        assert origin.resolve_in_doubt(txn.txn_id, committed=False) == "aborted"
        # Terminal states are sticky: a second resolve is a no-op.
        assert origin.resolve_in_doubt(txn.txn_id, committed=True) == "noop"
        assert origin.resolve_in_doubt("no-such-txn", committed=True) == "noop"

    def test_forget_transaction_clears_chain(self):
        result = run_chaos(ChaosConfig(seed=2, txns=4, fault_rate=0.0))
        origin = result.cluster.peer("C1")
        txn = origin.begin_transaction()
        assert txn.txn_id in origin.chain_views()
        origin.resolve_in_doubt(txn.txn_id, committed=False)
        origin.forget_transaction(txn.txn_id)
        assert txn.txn_id not in origin.chain_views()


@pytest.fixture
def skip_undo():
    with mutated("skip_undo"):
        yield


class TestShrinkAndRepro:
    CONFIG = ChaosConfig(seed=7, fault_rate=0.2)

    def test_shrink_minimizes_and_stays_failing(self, skip_undo):
        failing = run_chaos(self.CONFIG)
        assert not failing.ok
        report = shrink_plan(self.CONFIG, failing.plan)
        assert len(report.result.plan) <= len(failing.plan)
        assert not report.result.ok
        assert report.runs >= 1

    def test_shrink_rejects_passing_plan(self):
        config = ChaosConfig(seed=2, txns=6, fault_rate=0.0)
        with pytest.raises(ValueError):
            shrink_plan(config, FaultPlan(()))

    def test_repro_file_round_trip(self, tmp_path, skip_undo):
        failing = run_chaos(self.CONFIG)
        path = tmp_path / "repro.json"
        report = shrink_and_report(self.CONFIG, failing.plan, str(path))
        raw = json.loads(path.read_text())
        assert raw["version"] == 1
        config, plan = load_repro_file(str(path))
        assert config == self.CONFIG
        assert plan == report.result.plan

        replayed = replay_repro_file(str(path))
        assert not replayed.ok
        assert [v.to_dict() for v in replayed.violations] == raw["violations"]

    def test_repro_file_version_check(self, tmp_path, skip_undo):
        failing = run_chaos(self.CONFIG)
        path = tmp_path / "repro.json"
        write_repro_file(str(path), failing)
        data = json.loads(path.read_text())
        data["version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            load_repro_file(str(path))


class TestSweep:
    def test_sweep_counts_and_metrics(self):
        metrics = MetricsCollector()
        rows = []
        for fault_rate in (0.0, 0.4):
            table, failures = chaos_sweep(
                ChaosConfig(txns=6, fault_rate=fault_rate),
                seeds=range(2),
                concurrencies=(2,),
                metrics=metrics,
            )
            assert failures == []
            rows.extend(table.rows)
        assert metrics.get("chaos_runs") == 4
        assert metrics.get("chaos_violations") == 0
        assert [row["fault_rate"] for row in rows] == [0.0, 0.0, 0.4, 0.4]


def _repro_with(event: str) -> str:
    """A repro file that is well-formed up to its second event, *event*
    (JSON text) — so a rejection must come before anything is scripted."""
    return (
        '{"version": 1, "config": {"txns": 4}, "plan": {"events": ['
        '{"kind": "disconnect", "peer": "AP2", "time": 0.1}, %s]}}' % event
    )


class TestChaosCli:
    def test_single_run_exit_zero_and_json(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        code = main([
            "chaos", "--seed", "3", "--txns", "6",
            "--fault-rate", "0.2", "--json-out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["violations"] == []
        assert "0 violations" in capsys.readouterr().out

    def test_cli_summary_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main([
                "chaos", "--seed", "5", "--txns", "6", "--json-out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mutated_run_writes_repro_and_exits_one(self, tmp_path, capsys, skip_undo):
        repro = tmp_path / "repro.json"
        code = main(["chaos", "--seed", "7", "--repro-out", str(repro)])
        assert code == 1
        assert repro.exists()
        assert "shrunk schedule" in capsys.readouterr().out
        assert main(["chaos", "--replay", str(repro)]) == 1

    def test_sweep_mode(self, capsys):
        code = main([
            "chaos", "--sweep", "--seeds", "2", "--txns", "6",
            "--fault-rate", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos_runs = 4" in out
        assert "chaos_violations = 0" in out

    def test_sweep_does_not_repeat_a_concurrency(self, capsys):
        # --concurrency 2 coincides with the sweep's built-in 2: one
        # row per seed, not two identical ones.
        code = main([
            "chaos", "--sweep", "--seeds", "2", "--txns", "4",
            "--concurrency", "2",
        ])
        assert code == 0
        assert "chaos_runs = 2" in capsys.readouterr().out

    @pytest.mark.parametrize("text, names", [
        ('{"version": 1, "config": {"txns": "x"}, "plan": {"events": []}}',
         "txns"),
        ('{"version": 1, "config": {"handlers": 1}, "plan": {"events": []}}',
         "handlers"),
        ('{"version": 1, "config": {"bogus": 1}, "plan": {"events": []}}',
         "unknown config field(s) ['bogus']"),
        ('{"version": 1, "config": {"mutate": "skip_undo"}, "plan": {"events": []}}',
         "unknown config field(s) ['mutate']"),
        ('{"version": 1, "config": {}}', "plan"),
        ('{"version": 1, "plan": {"events": []}}', "config"),
        ('{"version": 1, "config": {}, "plan": {"events": [{"bogus": 1}]}}',
         "plan"),
        ('{"version": 1, "config": {}, "plan": {"events": 3}}', "plan"),
        ("[1, 2]", "JSON object"),
        ("{not json", "cannot replay"),
        (_repro_with('{"kind": "disconnect", "peer": "AP1", "time": "soon"}'),
         "malformed 'plan': fault event field 'time' must be float"),
        (_repro_with('{"kind": "crash", "peer": "AP1", "delay": [1]}'),
         "malformed 'plan': fault event field 'delay' must be float"),
        (_repro_with('{"kind": "message_chaos", "drop_rate": true}'),
         "malformed 'plan': fault event field 'drop_rate' must be float"),
        (_repro_with('{"kind": "crash", "peer": "AP1", "tear_checkpoint": 1}'),
         "malformed 'plan': fault event field 'tear_checkpoint' must be bool"),
        (_repro_with('{"kind": "disconnect", "peer": 7, "time": 0.5}'),
         "malformed 'plan': fault event field 'peer' must be str"),
        (_repro_with('{"kind": "meteor", "peer": "AP1"}'),
         "malformed 'plan': unknown fault event kind 'meteor'"),
        (_repro_with('{"kind": ["crash"]}'), "malformed 'plan': unknown fault event kind"),
        (_repro_with('{"kind": "disconnect", "peer": "AP1", "when": 0.5}'),
         "malformed 'plan': unknown fault event field(s) ['when']"),
        (_repro_with('"disconnect"'), "malformed 'plan': a fault event is a JSON object"),
    ], ids=[
        "config-str-for-int", "config-int-for-bool", "config-unknown-key",
        "config-removed-mutate", "no-plan", "no-config",
        "unknown-event-field", "events-not-a-list", "not-an-object",
        "not-json",
        "event-time-str", "event-delay-list", "event-drop-rate-bool",
        "event-tear-int", "event-peer-int", "event-unknown-kind",
        "event-kind-not-a-string", "event-unknown-field-known-kind",
        "event-not-an-object",
    ])
    def test_malformed_repro_file_exits_two(self, tmp_path, capsys, text, names):
        repro = tmp_path / "bad.json"
        repro.write_text(text)
        assert main(["chaos", "--replay", str(repro)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro chaos: cannot replay")
        assert names in err and "Traceback" not in err
        assert err.count("\n") == 1


class TestInvokeOpUnit:
    def test_params_are_canonicalized(self):
        a = InvokeOp("AP1", "S1", {"b": "2", "a": "1"})
        b = InvokeOp("AP1", "S1", (("a", "1"), ("b", "2")))
        assert a == b
        assert a.params_dict == {"a": "1", "b": "2"}
