"""Exact protocol-trace regression tests.

These pin the paper's prose walk-throughs to message sequences: if a
refactor reorders or drops a protocol message, these fail with the full
transcript.
"""

import pytest

from repro.api import Cluster
from repro.sim.trace import TraceAttachError, TraceRecorder
from repro.txn.recovery import FaultPolicy


def shorthand(recorder, kind):
    """The recorded *kind* events as ``kind:source->target:detail``."""
    return [
        f"{e.kind}:{e.source}->{e.target}:{e.detail}"
        for e in recorder.events
        if e.kind == kind
    ]


class TestFig1HappyTrace:
    def test_invocation_order_depth_first(self):
        scenario = Cluster.fig1()
        recorder = TraceRecorder(scenario.network)
        txn, error = scenario.run_topology()
        assert error is None
        invokes = shorthand(recorder, "invoke")
        assert invokes == [
            "invoke:AP1->AP2:S2",
            "invoke:AP1->AP3:S3",
            "invoke:AP3->AP4:S4",
            "invoke:AP3->AP5:S5",
            "invoke:AP5->AP6:S6",
        ]

    def test_results_return_inside_out(self):
        scenario = Cluster.fig1()
        recorder = TraceRecorder(scenario.network)
        scenario.run_topology()
        results = shorthand(recorder, "result")
        assert results == [
            "result:AP2->AP1:S2",
            "result:AP4->AP3:S4",
            "result:AP6->AP5:S6",
            "result:AP5->AP3:S5",
            "result:AP3->AP1:S3",
        ]

    def test_commit_notifies_every_participant(self):
        scenario = Cluster.fig1()
        recorder = TraceRecorder(scenario.network)
        txn, _ = scenario.run_topology()
        scenario.peer("AP1").commit(txn.txn_id)
        commits = [
            line for line in shorthand(recorder, "notify")
            if ":commit:" in line
        ]
        assert len(commits) == 5  # AP2..AP6


class TestFig1AbortTrace:
    def test_paper_walkthrough_messages(self):
        """§3.2 steps 1–4 as an exact message sequence."""
        scenario = Cluster.fig1()
        recorder = TraceRecorder(scenario.network)
        scenario.injector.fault_service("AP5", "S5", "Crash", point="after_execute")
        txn, error = scenario.run_topology()
        assert error is not None
        aborts = [
            line for line in shorthand(recorder, "notify")
            if ":abort:" in line
        ]
        # Step 1: AP5 -> AP6 (peer whose service it had invoked).
        # Step 4 at AP3: -> AP4; then at AP1: -> AP2.
        assert aborts == [
            f"notify:AP5->AP6:abort:{txn.txn_id}",
            f"notify:AP3->AP4:abort:{txn.txn_id}",
            f"notify:AP1->AP2:abort:{txn.txn_id}",
        ]
        faults = shorthand(recorder, "fault")
        # The fault travels AP5 -> AP3 -> AP1 (the rpc fault propagation
        # is visible at each unwinding hop).
        assert faults == [
            "fault:AP5->AP3:S5:Crash",
            "fault:AP3->AP1:S3:Crash",
        ]

    def test_forward_recovery_trace(self):
        scenario = Cluster.fig1()
        recorder = TraceRecorder(scenario.network)
        scenario.injector.fault_service("AP5", "S5", "Crash", times=1, point="after_execute")
        scenario.peer("AP3").set_fault_policy(
            "S5", [FaultPolicy(fault_names={"Crash"}, retry_times=1)]
        )
        txn, error = scenario.run_topology()
        assert error is None
        invokes = shorthand(recorder, "invoke")
        # S5 invoked twice (original + retry); the retry re-runs S6.
        assert invokes.count("invoke:AP3->AP5:S5") == 2
        assert invokes.count("invoke:AP5->AP6:S6") == 2
        # The abort of the failed first attempt reached AP6 exactly once.
        aborts = [l for l in shorthand(recorder, "notify") if ":abort:" in l]
        assert aborts == [f"notify:AP5->AP6:abort:{txn.txn_id}"]


class TestFig2DisconnectTrace:
    def test_case_b_redirect_sequence(self):
        scenario = Cluster.fig2()
        recorder = TraceRecorder(scenario.network)
        scenario.injector.disconnect_peer_during("AP3", "AP6", "S6", "after_local_work")
        txn, _ = scenario.run_topology()
        notifies = shorthand(recorder, "notify")
        assert f"notify:AP6->AP2:disconnect_notice:{txn.txn_id}" in notifies
        assert f"notify:AP6->AP2:redirected_result:{txn.txn_id}" in notifies
        # The notice precedes the redirected payload.
        assert notifies.index(
            f"notify:AP6->AP2:disconnect_notice:{txn.txn_id}"
        ) < notifies.index(f"notify:AP6->AP2:redirected_result:{txn.txn_id}")

    def test_detach_restores_network(self):
        scenario = Cluster.fig2()
        recorder = TraceRecorder(scenario.network)
        recorder.detach()
        scenario.run_topology()
        assert len(recorder) == 0

    def test_detach_is_idempotent(self):
        scenario = Cluster.fig2()
        recorder = TraceRecorder(scenario.network)
        recorder.detach()
        recorder.detach()  # second detach is a no-op
        assert not recorder._attached
        scenario.run_topology()
        assert len(recorder) == 0

    def test_double_attach_detaches_innermost_first(self):
        scenario = Cluster.fig2()
        outer = TraceRecorder(scenario.network)
        inner = TraceRecorder(scenario.network)
        # Both recorders see traffic while stacked.
        scenario.run_topology()
        assert len(outer) > 0 and len(inner) > 0
        # Out-of-order detach would orphan the inner wrapper: refused.
        with pytest.raises(TraceAttachError):
            outer.detach()
        assert outer._attached
        inner.detach()
        outer.detach()
        assert not outer._attached and not inner._attached
        # The network is fully unwrapped again.
        before_outer, before_inner = len(outer), len(inner)
        Cluster.fig2().run_topology()
        assert len(outer) == before_outer and len(inner) == before_inner

    def test_transcript_renders(self):
        scenario = Cluster.fig1()
        recorder = TraceRecorder(scenario.network)
        scenario.run_topology()
        transcript = recorder.transcript()
        assert "AP1" in transcript and "invoke(S2)" in transcript
