"""Continuous (periodic / subscription) services.

§1: "An embedded service call may be invoked (or materialized) … 2)
periodically (specified by the 'frequency' attribute of the AXML service
call tag)."  §3.3(d) builds on the same machinery: "subscription based
continuous services … are responsible for sending updated (streams of)
data at regular intervals", and a sibling detects a disconnection "if it
doesn't receive data at the specified interval".

:class:`ContinuousDriver` schedules periodic materialization of every
``frequency``-carrying call of a document on the simulation's event
queue.  The §3.3(d) sibling-to-sibling stream, whose consumer reports
the producer's silence through the peer's chain, is
:class:`repro.p2p.streams.SiblingStream`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.axml.document import AXMLDocument
from repro.axml.materialize import MaterializationEngine, Resolver
from repro.axml.service_call import ServiceCall
from repro.errors import MaterializationError, PeerDisconnected, ServiceFault
from repro.sim.kernel import EventQueue
from repro.xmlstore.nodes import NodeId


@dataclass
class TickRecord:
    """One periodic materialization attempt."""

    time: float
    method_name: str
    succeeded: bool
    records: int = 0


class ContinuousDriver:
    """Drives the periodic calls of one document on an event queue.

    Each call with a ``frequency`` attribute is re-materialized every
    ``frequency`` simulated seconds until the call element disappears
    from the document — e.g. compensated away.
    Failures of a tick are recorded, not raised: a periodic refresh that
    fails simply retries at the next tick (the §3.2 machinery only kicks
    in for transactional invocations).
    """

    def __init__(
        self,
        axml_document: AXMLDocument,
        resolver: Resolver,
        events: EventQueue,
        on_tick: Optional[Callable[[TickRecord], None]] = None,
    ):
        self.axml_document = axml_document
        self.resolver = resolver
        self.events = events
        self.on_tick = on_tick
        self.history: List[TickRecord] = []

    def start(self) -> int:
        """Schedule every continuous call; returns how many were found."""
        calls = self.axml_document.continuous_calls()
        for call in calls:
            self._schedule(call.call_id, call.frequency or 1.0)
        return len(calls)

    def tick_count(self, method_name: Optional[str] = None) -> int:
        return sum(
            1
            for record in self.history
            if method_name is None or record.method_name == method_name
        )

    def _schedule(self, call_id: NodeId, period: float) -> None:
        self.events.schedule(period, lambda: self._tick(call_id, period))

    def _tick(self, call_id: NodeId, period: float) -> None:
        document = self.axml_document.document
        if not document.has_node(call_id):
            return
        element = document.get_node(call_id)
        if not element.is_attached():
            # The call was compensated/deleted: subscription lapses.
            return
        call = ServiceCall(element)
        engine = MaterializationEngine(self.axml_document, self.resolver)
        try:
            report = engine.materialize_call(call)
            record = TickRecord(
                self.events.clock.now,
                call.method_name,
                succeeded=True,
                records=len(report.change_records()),
            )
        except (ServiceFault, PeerDisconnected, MaterializationError):
            record = TickRecord(
                self.events.clock.now, call.method_name, succeeded=False
            )
        self.history.append(record)
        if self.on_tick is not None:
            self.on_tick(record)
        self._schedule(call_id, period)

