"""Unit tests for caller-side recovery policies (repro.txn.recovery)."""

import pytest

from repro.axml.faults import parse_fault_handlers
from repro.errors import PeerDisconnected, ServiceFault
from repro.txn.recovery import (
    DISCONNECT_FAULT,
    FaultPolicy,
    attempt_forward_recovery,
    fault_name_of,
    select_policy,
)
from repro.xmlstore.parser import parse_document


class TestFaultNames:
    def test_service_fault(self):
        assert fault_name_of(ServiceFault("Boom")) == "Boom"

    def test_disconnection(self):
        assert fault_name_of(PeerDisconnected("AP3")) == DISCONNECT_FAULT

    def test_other(self):
        from repro.errors import TransactionError

        assert fault_name_of(TransactionError("x")) == "TransactionError"


class TestSelectPolicy:
    def test_specific_beats_catchall(self):
        specific = FaultPolicy(fault_names={"A"})
        catchall = FaultPolicy(fault_names=None)
        assert select_policy([catchall, specific], "A") is specific

    def test_catchall_fallback(self):
        catchall = FaultPolicy(fault_names=None)
        assert select_policy([FaultPolicy(fault_names={"A"}), catchall], "Z") is catchall

    def test_none_when_no_match(self):
        assert select_policy([FaultPolicy(fault_names={"A"})], "Z") is None

    def test_empty(self):
        assert select_policy([], "A") is None


class TestFromHandler:
    def test_retry_handler(self):
        doc = parse_document(
            "<D><axml:sc methodName='m'><axml:catch faultName='F'>"
            "<axml:retry times='4' wait='2.5'>"
            "<axml:sc methodName='m' serviceURL='axml://replica'/>"
            "</axml:retry></axml:catch></axml:sc></D>"
        )
        policy = parse_fault_handlers(doc.root.child_elements()[0])[0]
        assert policy.fault_names == {"F"}
        assert policy.retry_times == 4
        assert policy.retry_wait == 2.5
        assert policy.alternative_peer == "replica"

    def test_catchall_absorbs(self):
        doc = parse_document(
            "<D><axml:sc methodName='m'><axml:catchAll/></axml:sc></D>"
        )
        policy = parse_fault_handlers(doc.root.child_elements()[0])[0]
        assert policy.fault_names is None
        assert policy.absorb


class _Reinvoker:
    """Scripted reinvocation target for forward-recovery unit tests."""

    def __init__(self, failures=0, alive=True):
        self.failures = failures
        self.alive = alive
        self.calls = []

    def __call__(self, peer, method, params):
        self.calls.append(peer)
        if self.failures > 0:
            self.failures -= 1
            raise ServiceFault("Again")
        return ["<ok/>"]


class TestAttemptForwardRecovery:
    def run(self, policy, reinvoker, alive=True, waits=None):
        waits = waits if waits is not None else []
        return attempt_forward_recovery(
            policy,
            "target",
            "m",
            {},
            reinvoke=reinvoker,
            wait=waits.append,
            original_target_alive=lambda: alive,
        )

    def test_absorb(self):
        decision = self.run(FaultPolicy(absorb=True), _Reinvoker())
        assert decision.handled and decision.fragments == []

    def test_hook_handled(self):
        policy = FaultPolicy(hook=lambda p: ["<h/>"])
        decision = self.run(policy, _Reinvoker())
        assert decision.handled and decision.fragments == ["<h/>"]

    def test_hook_unhandled(self):
        policy = FaultPolicy(hook=lambda p: None)
        assert not self.run(policy, _Reinvoker()).handled

    def test_retry_succeeds(self):
        reinvoker = _Reinvoker(failures=1)
        decision = self.run(FaultPolicy(retry_times=3), reinvoker)
        assert decision.handled
        assert decision.retries_used == 2
        assert reinvoker.calls == ["target", "target"]

    def test_retry_exhausted(self):
        decision = self.run(FaultPolicy(retry_times=2), _Reinvoker(failures=99))
        assert not decision.handled

    def test_retry_waits(self):
        waits = []
        self.run(FaultPolicy(retry_times=2, retry_wait=1.5), _Reinvoker(failures=99),
                 waits=waits)
        assert waits == [1.5, 1.5]

    def test_dead_target_uses_alternative(self):
        reinvoker = _Reinvoker()
        decision = self.run(
            FaultPolicy(retry_times=1, alternative_peer="replica"),
            reinvoker,
            alive=False,
        )
        assert decision.handled and decision.used_alternative
        assert reinvoker.calls == ["replica"]

    def test_dead_target_no_alternative_cannot_recover(self):
        reinvoker = _Reinvoker()
        decision = self.run(FaultPolicy(retry_times=3), reinvoker, alive=False)
        assert not decision.handled
        assert reinvoker.calls == []

    def test_second_retry_prefers_alternative(self):
        reinvoker = _Reinvoker(failures=1)
        decision = self.run(
            FaultPolicy(retry_times=2, alternative_peer="replica"), reinvoker
        )
        assert decision.handled
        assert reinvoker.calls == ["target", "replica"]

    def test_zero_retries_unhandled(self):
        assert not self.run(FaultPolicy(retry_times=0), _Reinvoker()).handled

    def test_doomed_retries_do_not_wait(self):
        # Dead target, no replica: no retry can succeed, so no retry may
        # burn wait time either (regression: each doomed retry used to
        # pay retry_wait before skipping itself).
        waits = []
        decision = self.run(
            FaultPolicy(retry_times=5, retry_wait=2.0),
            _Reinvoker(),
            alive=False,
            waits=waits,
        )
        assert not decision.handled
        assert waits == []

    def test_doomed_retries_elapse_no_virtual_time(self):
        from repro.sim.kernel import Clock

        clock = Clock()
        reinvoker = _Reinvoker()
        decision = attempt_forward_recovery(
            FaultPolicy(retry_times=3, retry_wait=1.5),
            "target",
            "m",
            {},
            reinvoke=reinvoker,
            wait=clock.advance,
            original_target_alive=lambda: False,
        )
        assert not decision.handled
        assert reinvoker.calls == []
        assert clock.now == 0.0

    def test_live_target_still_waits_each_retry(self):
        from repro.sim.kernel import Clock

        clock = Clock()
        attempt_forward_recovery(
            FaultPolicy(retry_times=2, retry_wait=1.5),
            "target",
            "m",
            {},
            reinvoke=_Reinvoker(failures=99),
            wait=clock.advance,
            original_target_alive=lambda: True,
        )
        assert clock.now == 3.0
