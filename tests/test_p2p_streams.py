"""Integration tests for sibling data streams (§3.3(d))."""

import pytest

from repro.api import Cluster
from repro.p2p.streams import open_stream


def fig2_with_stream(chaining=True, interval=0.1):
    """Fig. 2 with AP3 streaming data to its sibling AP4."""
    scenario = Cluster.fig2(chaining=chaining)
    txn, _ = scenario.run_topology()
    stream = open_stream(
        scenario.network,
        txn.txn_id,
        producer=scenario.peer("AP3"),
        consumer=scenario.peer("AP4"),
        interval=interval,
    )
    return scenario, txn, stream


class TestHealthyStream:
    def test_data_flows(self):
        scenario, txn, stream = fig2_with_stream()
        scenario.network.events.run_until(1.05)
        assert len(stream.received) >= 8
        assert not stream.silent

    def test_sequence_monotone(self):
        scenario, txn, stream = fig2_with_stream()
        scenario.network.events.run_until(0.55)
        sequences = [d.sequence for d in stream.received]
        assert sequences == sorted(sequences)

    def test_stop_ends_flow(self):
        scenario, txn, stream = fig2_with_stream()
        scenario.network.events.run_until(0.35)
        count = len(stream.received)
        stream.stop()
        scenario.network.events.run_until(2.0)
        assert len(stream.received) == count


class TestSilenceDetection:
    def test_producer_death_detected(self):
        scenario, txn, stream = fig2_with_stream()
        scenario.network.events.run_until(0.5)
        scenario.network.disconnect("AP3")
        scenario.network.events.run_until(3.0)
        assert stream.silent
        assert scenario.metrics.get("stream_silences") == 1

    def test_detection_triggers_chain_notices(self):
        """The silent sibling's parent (AP2) and child (AP6) learn of the
        death through AP4's chain — the §3.3(d) protocol."""
        scenario, txn, stream = fig2_with_stream()
        scenario.network.events.run_until(0.5)
        scenario.network.disconnect("AP3")
        scenario.network.events.run_until(3.0)
        assert scenario.peer("AP2").is_doomed(txn.txn_id)
        assert scenario.peer("AP6").is_doomed(txn.txn_id)

    def test_naive_consumer_cannot_notify(self):
        scenario, txn, stream = fig2_with_stream(chaining=False)
        scenario.network.events.run_until(0.5)
        scenario.network.disconnect("AP3")
        scenario.network.events.run_until(3.0)
        assert stream.silent
        assert not scenario.peer("AP6").is_doomed(txn.txn_id)

    def test_detection_latency_bounded(self):
        scenario, txn, stream = fig2_with_stream(interval=0.1)
        scenario.network.events.run_until(0.5)
        scenario.network.disconnect("AP3")
        scenario.network.events.run_until(3.0)
        latency = scenario.metrics.detection_latency("AP3")
        # one interval of missing data + the grace factor, roughly
        assert latency < 0.5

    def test_dead_consumer_stops_checking(self):
        scenario, txn, stream = fig2_with_stream()
        scenario.network.events.run_until(0.3)
        scenario.network.disconnect("AP4")
        scenario.network.disconnect("AP3")
        scenario.network.events.run_until(3.0)
        assert not stream.silent
