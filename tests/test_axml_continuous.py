"""Unit tests for continuous/periodic services (repro.axml.continuous).

§3.3(d)'s reaction to a silent sibling is ``AXMLPeer.report_stream_timeout``,
pinned in ``tests/test_disconnection_cases.py::TestCaseDSibling``."""

import pytest

from repro.axml.continuous import ContinuousDriver
from repro.axml.document import AXMLDocument
from repro.outcome import Outcome
from repro.errors import ServiceFault
from repro.sim.kernel import Clock, EventQueue

DOC = (
    "<Feed>"
    "<axml:sc mode='replace' methodName='getQuote' frequency='1.0'>"
    "<quote>100</quote></axml:sc>"
    "<axml:sc mode='replace' methodName='getStatic'><s>1</s></axml:sc>"
    "</Feed>"
)


def make_driver(resolver):
    doc = AXMLDocument.from_xml(DOC, name="Feed")
    events = EventQueue(Clock())
    driver = ContinuousDriver(doc, resolver, events)
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
        assert driver.tick_count() == 3
        assert {r.method_name for r in driver.history} == {"getQuote"}
        quote = doc.service_calls()[0].result_nodes()[0]
        assert quote.text_content() == "103"

    def test_tick_records_changes(self):
        doc, events, driver = make_driver(
            lambda c, p: Outcome(["<quote>1</quote>"])
        )
        driver.start()
        events.run_until(1.0)
        assert driver.history[0].succeeded
        assert driver.history[0].time == pytest.approx(1.0)
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

