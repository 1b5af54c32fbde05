"""Unit tests for continuous/periodic services (repro.axml.continuous)
and the §3.3(d) subscription stream (repro.p2p.streams)."""

import pytest

from repro.api import Cluster
from repro.axml.continuous import ContinuousDriver
from repro.axml.document import AXMLDocument
from repro.outcome import Outcome
from repro.errors import ServiceFault
from repro.p2p.streams import SiblingStream, StreamData
from repro.sim.kernel import Clock, EventQueue

DOC = (
    "<Feed>"
    "<axml:sc mode='replace' methodName='getQuote' frequency='1.0'>"
    "<quote>100</quote></axml:sc>"
    "<axml:sc mode='replace' methodName='getStatic'><s>1</s></axml:sc>"
    "</Feed>"
)


def make_driver(resolver, on_tick=None):
    doc = AXMLDocument.from_xml(DOC, name="Feed")
    events = EventQueue(Clock())
    driver = ContinuousDriver(doc, resolver, events, on_tick)
    return doc, events, driver


class TestContinuousDriver:
    def test_only_frequency_calls_scheduled(self):
        doc, events, driver = make_driver(
            lambda c, p: Outcome(["<quote>1</quote>"])
        )
        assert driver.start() == 1

    def test_periodic_ticks(self):
        values = iter(range(101, 120))
        doc, events, driver = make_driver(
            lambda c, p: Outcome([f"<quote>{next(values)}</quote>"])
        )
        driver.start()
        events.run_until(3.5)
        assert driver.tick_count("getQuote") == 3
        quote = doc.service_calls()[0].result_nodes()[0]
        assert quote.text_content() == "103"

    def test_tick_records_changes(self):
        doc, events, driver = make_driver(
            lambda c, p: Outcome(["<quote>1</quote>"])
        )
        driver.start()
        events.run_until(1.0)
        assert driver.history[0].succeeded
        assert driver.history[0].records == 2  # replace = delete + insert

    def test_stop(self):
        # A subscription stops when its call leaves the document (e.g.
        # compensated away) after it has ticked.
        doc, events, driver = make_driver(
            lambda c, p: Outcome(["<quote>1</quote>"])
        )
        driver.start()
        events.run_until(1.0)
        doc.service_calls()[0].element.detach()
        events.run_until(10.0)
        assert driver.tick_count() == 1

    def test_failed_tick_recorded_and_retried(self):
        calls = {"n": 0}

        def flaky(call, params):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ServiceFault("Unavailable")
            return Outcome(["<quote>1</quote>"])

        doc, events, driver = make_driver(flaky)
        driver.start()
        events.run_until(2.5)
        assert [r.succeeded for r in driver.history] == [False, True]

    def test_deleted_call_lapses(self):
        doc, events, driver = make_driver(
            lambda c, p: Outcome(["<quote>1</quote>"])
        )
        driver.start()
        doc.service_calls()[0].element.detach()
        events.run_until(5.0)
        assert driver.tick_count() == 0

    def test_on_tick_callback(self):
        seen = []
        doc, events, driver = make_driver(
            lambda c, p: Outcome(["<quote>1</quote>"]), on_tick=seen.append
        )
        driver.start()
        events.run_until(2.0)
        assert len(seen) == 2
        assert seen[0].time == pytest.approx(1.0)


class TestStreamSubscription:
    """The §3.3(d) subscription stream's silence clock, on
    :class:`repro.p2p.streams.SiblingStream`: Fig. 2's AP3 streams to its
    sibling AP4 once per ``interval``."""

    @staticmethod
    def _stream(**kwargs):
        cluster = Cluster.fig2()
        txn, _ = cluster.run_topology()
        stream = SiblingStream(
            cluster.network, txn.txn_id, cluster.peer("AP3"), cluster.peer("AP4"),
            interval=1.0, **kwargs,
        )
        start = cluster.clock.now

        def at(t):
            cluster.clock.advance_to(start + t)

        def deliver(t):
            at(t)
            stream.deliver(StreamData(txn.txn_id, "AP3", len(stream.received) + 1))

        return cluster, stream, at, deliver

    def test_delivery_resets_silence(self):
        _, stream, at, deliver = self._stream()
        deliver(1.0)
        at(1.5)
        assert not stream.overdue()
        deliver(2.0)
        at(2.9)
        assert not stream.overdue()

    def test_silence_detected_after_grace(self):
        cluster, stream, at, deliver = self._stream(grace=0.5)
        deliver(1.0)
        at(2.4)
        assert not stream.overdue()  # within interval*(1+grace)
        at(2.6)
        assert stream.overdue()
        # Started and then left without data, the consumer reports it.
        cluster.network.disconnect("AP3")
        stream.start()
        cluster.run_until(cluster.clock.now + 2.0)
        assert stream.silent
        assert cluster.metrics.get("stream_silences") == 1

    def test_callback_fires_once(self):
        cluster, stream, _, _ = self._stream()
        cluster.network.disconnect("AP3")
        stream.start()
        cluster.run_until(cluster.clock.now + 20.0)
        assert stream.silent
        assert cluster.metrics.get("stream_silences") == 1

    def test_counts(self):
        _, stream, _, deliver = self._stream()
        for t in (1.0, 2.0, 3.0):
            deliver(t)
        assert len(stream.received) == 3
