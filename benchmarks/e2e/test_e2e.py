"""Self-tests of the BENCH_E2E harness on ``--smoke`` sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import copy
import json
import re

import pytest

from benchmarks.e2e import harness
from benchmarks.e2e.__main__ import append_record, baseline_record
from benchmarks.e2e.tracing import BOUNDARIES, LAYERS, Tracer

SPEC = harness.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")

#: Boundaries no smoke workload reaches.  The first four are not reached
#: at full size either (README, "boundaries no workload reaches"); the
#: last two need a fault schedule longer than the smoke one.
UNREACHED_AT_SMOKE = {
    "p2p.network:SimNetwork.ping",
    "p2p.chain:PeerChain.copy",
    "txn.manager:TransactionManager.apply_compensation_xml",
    "xmlstore.serializer:Document.restore_from",
    "p2p.peer:AXMLPeer.abort",
    "p2p.sharding:ShardCoordinator.retire_peer",
}


@pytest.fixture(scope="module")
def smoke_runs():
    """One untraced and one traced smoke run of every workload."""
    return {
        name: [
            harness.run_segments(name, 0, harness.SMOKE_SEGMENTS, traced, smoke=True)
            for traced in (False, True)
        ]
        for name in WORKLOADS
    }


@pytest.fixture(scope="module")
def smoke_results(smoke_runs):
    return {name: harness.evaluate(name, runs) for name, runs in smoke_runs.items()}


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    per_layer = {e["name"] for e in SPEC["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.self_s", f"{layer}.calls"} <= per_layer


def test_smoke_runs_are_correct_and_deterministic(smoke_results):
    for name, result in smoke_results.items():
        assert result["errors"] == [], name
        assert result["metrics"]["oracle_violations"]["median"] == 0
        assert result["metrics"]["trace.overhead_ratio"]["median"] > 0


def test_contract_lines_carry_every_named_metric(smoke_results):
    for result in smoke_results.values():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            line = json.loads(harness.contract_line(SPEC, result, trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["attempted"] >= 1
            assert set(line["metrics"]) == {e["name"] for e in SPEC[key]}
        assert all(
            v["value"] != 0
            for v in json.loads(harness.contract_line(SPEC, result, False))["metrics"].values()
        )


def test_layers_are_reached_only_by_the_workloads_that_use_them(smoke_results):
    calls = {n: {l: r["metrics"][f"{l}.calls"]["median"] for l in LAYERS}
             for n, r in smoke_results.items()}
    assert calls["mem_invoke"]["p2p.replication"] == 0
    assert calls["mem_invoke"]["txn.durable_wal"] == 0
    assert calls["wal_ckpt"]["txn.durable_wal"] > 0
    assert calls["wal_ckpt"]["p2p.replication"] == 0
    assert calls["repl_ship"]["p2p.replication"] > 0
    assert calls["repl_ship"]["txn.occ"] == 0
    assert calls["shard_join"]["p2p.sharding"] > calls["repl_ship"]["p2p.sharding"]
    assert calls["catalogue_occ"]["txn.occ"] > 0
    assert calls["catalogue_occ"]["p2p.network"] == 0
    reached = {
        boundary
        for result in smoke_results.values()
        for boundary, count in result["boundary_calls"].items() if count
    }
    every = set(smoke_results["mem_invoke"]["boundary_calls"])
    assert every - reached <= UNREACHED_AT_SMOKE


def test_a_changed_count_is_a_determinism_error(smoke_runs):
    untraced, traced = smoke_runs["mem_invoke"]
    tampered = copy.deepcopy(traced)
    tampered.used[0]["counts"]["messages_sent"] += 1
    errors = harness.evaluate("mem_invoke", [untraced, tampered])["errors"]
    assert any("counts" in error for error in errors)


def test_a_violation_makes_the_result_incorrect(smoke_runs):
    untraced, _traced = smoke_runs["repl_ship"]
    tampered = copy.deepcopy(untraced)
    tampered.used[0]["violations"] = ["effect_missing"]
    result = harness.evaluate("repl_ship", [tampered])
    assert result["failed"] == 1
    assert json.loads(harness.contract_line(SPEC, result, False))["correct"] is False


def test_append_keeps_a_commit_keyed_history(tmp_path, smoke_results):
    path = str(tmp_path / "history.json")
    record = baseline_record(SPEC, list(smoke_results.values()), 0, 1, True)
    append_record(path, record)
    append_record(path, record)
    with open(path, encoding="utf-8") as handle:
        history = json.load(handle)
    assert len(history) == 2 and history[0]["commit"] and history[0]["nproc"] >= 1
    assert set(history[0]["workloads"]) == set(WORKLOADS)


# -- the wrapper installer, in this process ---------------------------------

def test_tracer_patches_aliases_classmethods_and_unwinds():
    import repro.chaos.runner as runner
    import repro.query.parser as parser
    from repro.errors import ReproError
    from repro.p2p.chain import PeerChain

    original = parser.parse_action
    assert runner.parse_action is original
    tracer = Tracer()
    tracer.install()
    try:
        # ``from x import f`` aliases are found by identity.
        assert runner.parse_action is parser.parse_action is not original
        chain = PeerChain.from_text(PeerChain("AP1").to_text())
        assert isinstance(chain, PeerChain)
        with pytest.raises(ReproError):
            parser.parse_action("<action")
        report = tracer.report(wall_s=1.0)
        calls = report["boundary_calls"]
        assert calls["p2p.chain:PeerChain.from_text"] == 1
        assert calls["query.parser:parse_action"] == 1
        assert report["attributed_s"] == pytest.approx(1.0)
        tracer.reset()
        assert not any(tracer.report(1.0)["boundary_calls"].values())
    finally:
        tracer.uninstall()
    assert runner.parse_action is parser.parse_action is original
    assert "from_text" in vars(PeerChain) and isinstance(
        vars(PeerChain)["from_text"], classmethod
    )
    assert sum(len(a) for groups in BOUNDARIES.values() for _m, _o, a in groups) == len(
        tracer.boundary_names
    )


def test_catalogue_verification_counts_every_insert():
    from benchmarks.e2e import workloads

    assert workloads.run_catalogue(3, smoke=True).violations == []

    # A committed insert that went missing, and a stray one, are both found.
    class FakeResult:
        label, committed = "c0t0", True

    class Element:
        def __init__(self, by):
            self.attributes = {"by": by}
            self.name = type("Name", (), {"local": "note"})()

    class Holder:
        def __init__(self, elements):
            self.documents = {"d": self}
            self.document = self
            self._elements = elements

        def iter_elements(self):
            return iter(self._elements)

    found = workloads._verify_catalogue(
        {"AP1": Holder([Element("stray.0")])}, [FakeResult()], {"c0t0": ["c0t0.1"]}
    )
    assert found == ["insert_count:c0t0.1", "insert_unexpected:stray.0"]
