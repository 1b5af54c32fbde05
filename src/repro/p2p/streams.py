"""Sibling-to-sibling data streams (§3.3(d)) over the simulated network.

"For data intensive applications, it is often the case that data is
passed directly between siblings (rather than sibling A - parent -
sibling B).  In an AXML scenario, this is particularly relevant for
subscription based continuous [1] services … Thus, a sibling would be
aware of another sibling's disconnection if it doesn't receive data at
the specified interval."

:class:`SiblingStream` wires a producer peer to a consumer peer: the
producer pushes one :class:`StreamData` notification per interval on the
event queue; the consumer checks for overdue data and, on silence,
triggers its §3.3(d) handler (``report_stream_timeout``) — which uses
the transaction's chain to notify the dead producer's parent and
children.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer


@dataclass
class StreamData:
    """One datum pushed from producer to consumer."""

    txn_id: str
    from_peer: str
    sequence: int
    payload_xml: str = ""


class SiblingStream:
    """A periodic producer→consumer data flow with silence detection.

    The consumer expects one datum every ``interval`` seconds and checks
    on the same period; once nothing arrived for ``interval × (1 +
    grace)`` the producer is ``silent`` — the §3.3(d) detection trigger.
    """

    def __init__(
        self,
        network: SimNetwork,
        txn_id: str,
        producer: AXMLPeer,
        consumer: AXMLPeer,
        interval: float = 0.1,
        grace: float = 0.5,
        payload_xml: str = "<datum/>",
    ):
        self.network = network
        self.txn_id = txn_id
        self.producer = producer
        self.consumer = consumer
        self.interval = interval
        self.grace = grace
        self.payload_xml = payload_xml
        self.sequence = 0
        self.received: List[StreamData] = []
        self.last_delivery = 0.0
        #: Set when the consumer reported the producer; a false alarm
        #: (the producer answers the confirming ping) clears it again.
        self.silent = False
        self._running = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin producing and watching."""
        self._running = True
        self.last_delivery = self.network.clock.now
        self._schedule_production()
        self._schedule_check()

    def stop(self) -> None:
        self._running = False

    # -- producer side ---------------------------------------------------------

    def _schedule_production(self) -> None:
        self.network.events.schedule(self.interval, self._produce)

    def _produce(self) -> None:
        if not self._running:
            return
        if self.producer.disconnected:
            return  # a dead producer streams nothing — the silence begins
        self.sequence += 1
        datum = StreamData(
            self.txn_id, self.producer.peer_id, self.sequence, self.payload_xml
        )
        self.network.notify(self.producer.peer_id, self.consumer.peer_id, datum)
        self._schedule_production()

    # -- consumer side -----------------------------------------------------------

    def deliver(self, datum: StreamData) -> None:
        """Called by the consumer peer when a datum arrives."""
        self.received.append(datum)
        self.last_delivery = self.network.clock.now

    def overdue(self) -> bool:
        """No datum for longer than ``interval × (1 + grace)``."""
        return self.network.clock.now - self.last_delivery > self.interval * (1 + self.grace)

    def _schedule_check(self) -> None:
        self.network.events.schedule(self.interval, self._check)

    def _check(self) -> None:
        if not self._running or self.consumer.disconnected:
            return
        if self.overdue():
            self._on_silence()
        if not self.silent:
            self._schedule_check()

    def _on_silence(self) -> None:
        """§3.3(d): the consumer reports the silent sibling through the
        chain (after the ping confirmation inside report_stream_timeout)."""
        self.silent = True
        self.network.metrics.incr("stream_silences")
        self.consumer.report_stream_timeout(self.txn_id, self.producer.peer_id)
        if not self.network.is_alive(self.producer.peer_id):
            self.stop()
        else:
            # False alarm (late data): resume watching.
            self.silent = False
            self._schedule_check()


def open_stream(
    network: SimNetwork,
    txn_id: str,
    producer: AXMLPeer,
    consumer: AXMLPeer,
    interval: float = 0.1,
    **kwargs,
) -> SiblingStream:
    """Create, register and start a sibling stream.

    The consumer's notification handler is extended to route
    :class:`StreamData` into the stream object.
    """
    stream = SiblingStream(network, txn_id, producer, consumer, interval, **kwargs)
    original_on_notify = consumer.on_notify

    def on_notify(message):
        if isinstance(message, StreamData) and message.txn_id == txn_id:
            stream.deliver(message)
            return
        original_on_notify(message)

    consumer.on_notify = on_notify
    stream.start()
    return stream
