"""Unit tests for the simulated network, kernel and failure injection."""

import pytest

from repro.errors import PeerDisconnected, UnknownPeer
from repro.p2p.failure import FailureInjector
from repro.outcome import Outcome
from repro.p2p.messages import InvokeRequest
from repro.p2p.network import HOP_LATENCY, SimNetwork
from repro.p2p.replication import ReplicationManager
from repro.sim.kernel import Clock, EventQueue


class StubPeer:
    """Minimal NetworkPeer for network-level tests."""

    def __init__(self, peer_id, network, handler=None):
        self.peer_id = peer_id
        self.disconnected = False
        self.notifications = []
        self.return_failures = []
        self._handler = handler
        network.register(self)

    def handle_invoke(self, request):
        if self._handler:
            return self._handler(request)
        return Outcome(fragments=[f"<from>{self.peer_id}</from>"])

    def on_notify(self, message):
        self.notifications.append(message)

    def on_return_failure(self, request, result):
        self.return_failures.append((request, result))


class TestClock:
    def test_advance(self):
        clock = Clock()
        assert clock.advance(1.5) == 1.5
        assert clock.now == 1.5

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            Clock().advance(-1)

    def test_advance_to_only_forward(self):
        clock = Clock(10)
        clock.advance_to(5)
        assert clock.now == 10
        clock.advance_to(12)
        assert clock.now == 12


class TestEventQueue:
    def test_fires_in_time_order(self):
        clock = Clock()
        queue = EventQueue(clock)
        fired = []
        queue.schedule(2.0, lambda: fired.append("b"))
        queue.schedule(1.0, lambda: fired.append("a"))
        queue.run_until(5.0)
        assert fired == ["a", "b"]
        assert clock.now == 5.0

    def test_respects_deadline(self):
        queue = EventQueue(Clock())
        fired = []
        queue.schedule(1.0, lambda: fired.append(1))
        queue.schedule(10.0, lambda: fired.append(2))
        queue.run_until(5.0)
        assert fired == [1]
        assert queue.step() and fired == [1, 2]

    def test_cancel(self):
        queue = EventQueue(Clock())
        fired = []
        handle = queue.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        queue.run_all()
        assert fired == []

    def test_tie_break_by_insertion(self):
        queue = EventQueue(Clock())
        fired = []
        queue.schedule(1.0, lambda: fired.append("first"))
        queue.schedule(1.0, lambda: fired.append("second"))
        queue.run_all()
        assert fired == ["first", "second"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventQueue(Clock()).schedule(-1, lambda: None)

    def test_event_storm_guard(self):
        clock = Clock()
        queue = EventQueue(clock)

        def respawn():
            queue.schedule(0.0, respawn)

        queue.schedule(0.0, respawn)
        with pytest.raises(RuntimeError):
            queue.run_until(1.0, max_events=50)


class TestRpc:
    def test_roundtrip_advances_clock(self):
        network = SimNetwork()
        StubPeer("A", network)
        StubPeer("B", network)
        result = network.rpc("A", "B", InvokeRequest("T1", "A", "A", "m"))
        assert result.fragments == ["<from>B</from>"]
        assert network.clock.now == pytest.approx(2 * HOP_LATENCY)
        assert network.metrics.get("messages.invoke") == 1
        assert network.metrics.get("messages.result") == 1

    def test_unknown_target(self):
        network = SimNetwork()
        StubPeer("A", network)
        with pytest.raises(UnknownPeer):
            network.rpc("A", "ghost", InvokeRequest("T1", "A", "A", "m"))

    def test_dead_target_raises_and_records_detection(self):
        network = SimNetwork()
        StubPeer("A", network)
        StubPeer("B", network)
        network.disconnect("B")
        with pytest.raises(PeerDisconnected) as exc:
            network.rpc("A", "B", InvokeRequest("T1", "A", "A", "m"))
        assert exc.value.peer_id == "B"
        assert network.metrics.detections[0].detected_by == "A"

    def test_target_dies_mid_execution(self):
        network = SimNetwork()
        StubPeer("A", network)

        def die(request):
            network.disconnect("B")
            raise PeerDisconnected("B")

        StubPeer("B", network, handler=die)
        with pytest.raises(PeerDisconnected) as exc:
            network.rpc("A", "B", InvokeRequest("T1", "A", "A", "m"))
        assert exc.value.peer_id == "B"

    def test_source_dies_before_return(self):
        network = SimNetwork()
        a = StubPeer("A", network)
        b = StubPeer("B", network, handler=lambda r: (network.disconnect("A"), Outcome(["<r/>"]))[1])
        with pytest.raises(PeerDisconnected) as exc:
            network.rpc("A", "B", InvokeRequest("T1", "A", "A", "m"))
        assert exc.value.peer_id == "A"
        assert len(b.return_failures) == 1  # §3.3(b) hook ran on the child

    def test_deeper_death_normalized_to_target(self):
        network = SimNetwork()
        StubPeer("A", network)

        def nested_failure(request):
            network.disconnect("B")
            raise PeerDisconnected("C")  # inner peer's death unwinding

        StubPeer("B", network, handler=nested_failure)
        with pytest.raises(PeerDisconnected) as exc:
            network.rpc("A", "B", InvokeRequest("T1", "A", "A", "m"))
        assert exc.value.peer_id == "B"


class TestNotifyAndPing:
    def test_notify_delivered(self):
        network = SimNetwork()
        StubPeer("A", network)
        b = StubPeer("B", network)
        assert network.notify("A", "B", "hello")
        assert b.notifications == ["hello"]

    def test_notify_to_dead_dropped(self):
        network = SimNetwork()
        StubPeer("A", network)
        StubPeer("B", network)
        network.disconnect("B")
        assert not network.notify("A", "B", "hello")
        assert network.metrics.get("messages_dropped") == 1

    def test_dead_sender_sends_nothing(self):
        network = SimNetwork()
        StubPeer("A", network)
        b = StubPeer("B", network)
        network.disconnect("A")
        assert not network.notify("A", "B", "hello")
        assert b.notifications == []

    def test_ping(self):
        network = SimNetwork()
        StubPeer("A", network)
        StubPeer("B", network)
        assert network.ping("A", "B")
        network.disconnect("B")
        assert not network.ping("A", "B")
        assert network.metrics.get("pings") == 2

    def test_reconnect(self):
        network = SimNetwork()
        StubPeer("A", network)
        network.disconnect("A")
        assert not network.is_alive("A")
        network.reconnect("A")
        assert network.is_alive("A")


class TestNetworkOwnsItsServices:
    def test_every_network_builds_a_replication_manager_and_an_injector(self):
        network = SimNetwork()
        assert isinstance(network.replication, ReplicationManager)
        assert isinstance(network.injector, FailureInjector)
        assert network.replication.network is network
        assert network.injector.network is network
        assert network.replication.directory is network.directory
        assert network.replication.ship_batch == 1

    def test_nothing_replicated_answers_like_no_replication(self):
        replication = SimNetwork().replication
        assert replication.replicated_documents() == []
        assert not replication.is_replicated_method("m")
        assert replication.failover_selector("P", "m") is None
        assert replication.directory.document_holders("D") == []


class TestFailureInjector:
    def test_fault_charges(self):
        network = SimNetwork()
        injector = network.injector
        injector.fault_service("P", "m", "F", times=2)
        assert injector.check_fault("P", "m") == "F"
        assert injector.check_fault("P", "m") == "F"
        assert injector.check_fault("P", "m") is None

    def test_fault_forever(self):
        network = SimNetwork()
        injector = network.injector
        injector.fault_service("P", "m", "F", times=-1)
        for _ in range(5):
            assert injector.check_fault("P", "m") == "F"

    def test_fault_points_independent(self):
        injector = SimNetwork().injector
        injector.fault_service("P", "m", "F", point="after_execute")
        assert injector.check_fault("P", "m", "before_execute") is None
        assert injector.check_fault("P", "m", "after_execute") == "F"

    def test_bad_fault_point(self):
        with pytest.raises(ValueError):
            SimNetwork().injector.fault_service("P", "m", "F", point="later")

    def test_disconnect_during(self):
        network = SimNetwork()
        StubPeer("P", network)
        injector = network.injector
        injector.disconnect_peer_during("P", "P", "m", point="before_return")
        assert injector.check_disconnect("P", "m", "before_return")
        assert not network.is_alive("P")
        # one-shot
        network.reconnect("P")
        assert not injector.check_disconnect("P", "m", "before_return")

    def test_disconnect_peer_during_cross(self):
        network = SimNetwork()
        StubPeer("P", network)
        StubPeer("Q", network)
        injector = network.injector
        injector.disconnect_peer_during("Q", "P", "m", point="after_local_work")
        assert not injector.check_disconnect("P", "m", "after_local_work")
        assert not network.is_alive("Q")
        assert network.is_alive("P")

    def test_disconnect_at_time(self):
        network = SimNetwork()
        StubPeer("P", network)
        injector = network.injector
        injector.disconnect_at("P", 5.0)
        network.events.run_until(4.0)
        assert network.is_alive("P")
        network.events.run_until(6.0)
        assert not network.is_alive("P")

    def test_bad_point_rejected(self):
        with pytest.raises(ValueError):
            SimNetwork().injector.disconnect_peer_during(
                "P", "P", "m", point="sideways"
            )
