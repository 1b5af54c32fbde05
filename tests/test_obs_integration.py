"""Observability threaded through real scenario runs.

The span tree and histograms are only worth having if the protocols
actually emit them: these tests run the Fig. 1 / Fig. 2 scenarios and
assert the emitted structure — transaction spans parenting invokes,
invokes parenting RPC hops, compensation spans on the abort path — plus
the strict-JSON export of a live run.
"""

import json

import pytest

from repro.api import Cluster
from repro.axml.document import AXMLDocument
from repro.errors import P2PError
from repro.obs import stable_json
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import UpdateService
from repro.sim.harness import ExperimentTable
from repro.txn.occ import ValidationConflict


def _by_id(recording):
    return {span.span_id: span for span in recording.spans}


class TestHappyPathSpans:
    def test_span_tree_shape(self):
        scenario = Cluster.fig1()
        spans = scenario.network.spans.record()
        txn, error = scenario.run_topology()
        assert error is None
        scenario.peer("AP1").commit(txn.txn_id)

        txn_spans = spans.by_kind("transaction")
        assert [s.status for s in txn_spans] == ["committed"]
        assert txn_spans[0].name == f"txn:{txn.txn_id}"

        # Fig. 1 runs five invocations; each invoke wraps one rpc hop,
        # and each rpc wraps the remote service execution.
        invokes = spans.by_kind("invoke")
        rpcs = spans.by_kind("rpc")
        services = spans.by_kind("service")
        assert len(invokes) == len(rpcs) == len(services) == 5
        index = _by_id(spans)
        for rpc in rpcs:
            assert index[rpc.parent_id].kind == "invoke"
        for service in services:
            assert index[service.parent_id].kind == "rpc"

        # Top-level invokes hang off the transaction span; nested ones
        # hang off the service executing them.
        roots = [s for s in invokes if index[s.parent_id].kind == "transaction"]
        nested = [s for s in invokes if index[s.parent_id].kind == "service"]
        assert len(roots) == 2  # AP1 -> S2, AP1 -> S3
        assert len(nested) == 3

    def test_all_spans_closed_and_timed(self):
        scenario = Cluster.fig1()
        recording = scenario.network.spans.record()
        txn, _ = scenario.run_topology()
        scenario.peer("AP1").commit(txn.txn_id)
        assert scenario.network.spans.summary()["open"] == 0
        assert recording.spans
        for span in recording.spans:
            assert span.duration is not None and span.duration >= 0

    def test_rpc_latency_histogram_populated(self):
        scenario = Cluster.fig1()
        scenario.run_topology()
        metrics = scenario.metrics
        hist = metrics.histogram("rpc_latency")
        assert hist.count == 5
        assert metrics.p50("rpc_latency") is not None
        assert metrics.percentile("rpc_latency", 95) >= metrics.p50("rpc_latency")
        # Chained invocations record how long the chain view was.
        assert metrics.histogram("chain_length").count > 0


class TestAbortPathSpans:
    def _aborted_run(self):
        scenario = Cluster.fig1()
        scenario.injector.fault_service(
            "AP5", "S5", "Crash", point="after_execute"
        )
        recording = scenario.network.spans.record()
        txn, error = scenario.run_topology()
        assert error is not None
        return scenario, recording

    def test_transaction_span_aborted(self):
        _, spans = self._aborted_run()
        txn_spans = spans.by_kind("transaction")
        assert [s.status for s in txn_spans] == ["aborted"]

    def test_compensation_spans_nest_under_service(self):
        _, spans = self._aborted_run()
        comps = spans.by_kind("compensation")
        assert comps, "abort must emit compensation spans"
        index = _by_id(spans)
        # The faulting peer compensates while its service span is still
        # open, so at least one compensation span nests beneath it.
        parent_kinds = {
            index[c.parent_id].kind for c in comps if c.parent_id is not None
        }
        assert "service" in parent_kinds
        assert all(c.status == "ok" for c in comps)

    def test_fault_statuses_recorded(self):
        _, spans = self._aborted_run()
        assert any(s.status == "fault" for s in spans.by_kind("rpc"))
        assert any(s.status == "fault" for s in spans.by_kind("service"))

    def test_compensation_depth_histogram(self):
        scenario, _ = self._aborted_run()
        hist = scenario.metrics.histogram("compensation_depth")
        assert hist.count > 0
        assert hist.max >= 1


class TestDisconnectionSpans:
    def test_disconnected_status_and_detection_histogram(self):
        scenario = Cluster.fig2()
        scenario.injector.disconnect_peer_during(
            "AP3", "AP6", "S6", "after_local_work"
        )
        spans = scenario.network.spans.record()
        scenario.run_topology()
        assert any(
            s.status == "disconnected" for s in spans.by_kind("rpc")
        )
        metrics = scenario.metrics
        assert metrics.histogram("detection_latency").count == len(
            metrics.detections
        )
        assert metrics.detection_latency("AP3") is not None


SET_PRICE = (
    '<action type="replace"><data><price>$price</price></data>'
    "<location>Select i/price from i in {doc}//item;</location></action>"
)


def _pair(target_document="Shop2", occ=False):
    """A (origin, hosts Shop) and B (hosts Shop2 and ``setPrice`` on
    *target_document*), and a recording of the network's spans."""
    network = SimNetwork()
    a = AXMLPeer("A", network, occ=occ)
    b = AXMLPeer("B", network)
    for peer, name in ((a, "Shop"), (b, "Shop2")):
        peer.host_document(AXMLDocument.from_xml(
            f"<{name}><item><price>10</price></item></{name}>", name=name
        ))
    b.host_service(UpdateService(
        ServiceDescriptor("setPrice", params=("price",), target_document=target_document),
        SET_PRICE.format(doc=target_document),
    ))
    return network, a, network.spans.record()


class TestTransactionSpanStatus:
    """The transaction span ends once, with the outcome the metrics record."""

    def _statuses(self, network, recording, txn_id):
        span, = recording.by_kind("transaction")
        return span.status, network.metrics.txn_outcomes[txn_id]

    def test_committed(self):
        network, a, recording = _pair()
        txn = a.begin_transaction()
        a.invoke(txn.txn_id, "B", "setPrice", {"price": "5"})
        a.commit(txn.txn_id)
        assert self._statuses(network, recording, txn.txn_id) == ("committed", "committed")

    def test_aborted(self):
        network, a, recording = _pair()
        txn = a.begin_transaction()
        a.invoke(txn.txn_id, "B", "setPrice", {"price": "5"})
        assert a.abort(txn.txn_id)
        assert self._statuses(network, recording, txn.txn_id) == ("aborted", "aborted")

    def test_abort_incomplete(self):
        network, a, recording = _pair()
        txn = a.begin_transaction()
        a.invoke(txn.txn_id, "B", "setPrice", {"price": "5"})
        network.disconnect("B")
        assert not a.abort(txn.txn_id)
        assert self._statuses(network, recording, txn.txn_id) == (
            "abort_incomplete", "abort_incomplete"
        )

    def test_aborted_conflict(self):
        network, a, recording = _pair(occ=True)
        query = (
            '<action type="query"><location>Select i/price from i in Shop//item;'
            "</location></action>"
        )
        reader, writer = a.begin_transaction(), a.begin_transaction()
        a.submit(reader.txn_id, query)
        a.submit(writer.txn_id, SET_PRICE.format(doc="Shop").replace("$price", "50"))
        a.submit(reader.txn_id, SET_PRICE.format(doc="Shop").replace("$price", "70"))
        a.commit(writer.txn_id)
        with pytest.raises(ValidationConflict):
            a.commit(reader.txn_id)
        span = next(
            s for s in recording.by_kind("transaction") if s.txn_id == reader.txn_id
        )
        assert (span.status, network.metrics.txn_outcomes[reader.txn_id]) == (
            "aborted_conflict", "aborted_conflict"
        )


def test_every_step_of_an_invocation_reports_an_escaping_error():
    """An exception other than a fault or a disconnection (B does not
    host the service's document) ends the invoke, rpc and service spans
    alike."""
    _, a, recording = _pair(target_document="Elsewhere")
    txn = a.begin_transaction()
    with pytest.raises(P2PError):
        a.invoke(txn.txn_id, "B", "setPrice", {"price": "5"})
    statuses = {kind: [s.status for s in recording.by_kind(kind)]
                for kind in ("invoke", "rpc", "service")}
    assert statuses == {kind: ["error:P2PError"] for kind in statuses}


class TestLiveRunExport:
    def test_metrics_and_spans_export_strict_json(self):
        scenario = Cluster.fig1()
        scenario.injector.fault_service(
            "AP5", "S5", "Crash", point="after_execute"
        )
        recording = scenario.network.spans.record()
        scenario.run_topology()
        metrics_text = stable_json(scenario.metrics.to_dict())
        spans_text = stable_json(recording.to_dict())
        for text in (metrics_text, spans_text):
            assert "Infinity" not in text and "NaN" not in text
            json.loads(text)
        data = json.loads(metrics_text)
        assert data["histograms"]["rpc_latency"]["p50"] is not None
        assert data["histograms"]["rpc_latency"]["p95"] is not None

    def test_experiment_table_json(self, tmp_path):
        table = ExperimentTable("t", ["a", "detect_s"])
        table.add_row(a=1, detect_s=None)
        table.add_row(a=2, detect_s=0.01)
        assert "-" in table.render()  # None renders as a dash
        path = table.write_json(str(tmp_path / "table.json"))
        data = json.loads(open(path).read())
        assert data["rows"][0]["detect_s"] is None
        assert data["title"] == "t"
