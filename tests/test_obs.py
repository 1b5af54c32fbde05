"""Unit tests for the observability layer (repro.obs)."""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import repro
from repro.errors import PeerDisconnected, ServiceFault
from repro.obs import (
    Histogram,
    Span,
    SpanCollector,
    render_report,
    run_summary,
    sanitize_for_json,
    stable_json,
    write_json_artifact,
)
from repro.sim.metrics import MetricsCollector


class TestHistogramEdges:
    def test_empty_histogram_is_all_none(self):
        h = Histogram("empty")
        assert h.count == 0
        assert h.min is None and h.max is None and h.mean is None
        assert h.percentile(50) is None
        assert h.p50 is None and h.p95 is None
        summary = h.summary()
        assert summary["p50"] is None and summary["max"] is None
        # The summary must be strict-JSON serializable as-is.
        json.loads(json.dumps(summary, allow_nan=False))

    def test_single_sample_is_every_percentile(self):
        h = Histogram()
        h.record(3.5)
        for p in (0, 1, 50, 95, 99, 100):
            assert h.percentile(p) == 3.5
        assert h.min == h.max == h.mean == 3.5

    def test_ties_collapse(self):
        h = Histogram()
        for v in (2.0, 2.0, 2.0, 2.0, 9.0):
            h.record(v)
        assert h.p50 == 2.0
        assert h.percentile(80) == 2.0
        assert h.p95 == 9.0

    def test_nearest_rank_on_1_to_100(self):
        h = Histogram()
        for v in range(1, 101):
            h.record(float(v))
        assert h.p50 == 50.0
        assert h.p95 == 95.0
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0

    def test_non_finite_rejected(self):
        h = Histogram("strict")
        with pytest.raises(ValueError):
            h.record(float("inf"))
        with pytest.raises(ValueError):
            h.record(float("nan"))
        assert h.count == 0

    def test_percentile_out_of_range_rejected(self):
        h = Histogram()
        h.record(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_record_after_percentile_invalidates_cache(self):
        h = Histogram()
        h.record(10.0)
        assert h.p50 == 10.0
        h.record(1.0)
        assert h.p50 == 1.0

    def test_merge_and_round_trip(self):
        a = Histogram("lat")
        a.record(1.0)
        a.record(3.0)
        assert a.count == 2 and a.max == 3.0
        exported = a.to_dict()
        assert exported["name"] == "lat"
        assert exported["values"] == a.values == [1.0, 3.0]
        assert {k: exported[k] for k in a.summary()} == a.summary()


class TestSpanCollector:
    def test_stack_parenting(self):
        spans = SpanCollector(lambda: 0.0)
        with spans.span("outer", "invoke") as outer:
            with spans.span("inner", "rpc") as inner:
                assert inner.parent_id == outer.span_id
                assert spans.current() is inner
        assert spans.current() is None
        assert spans.children_of(outer) == [inner]

    def test_detached_spans_stay_off_stack(self):
        spans = SpanCollector(lambda: 0.0)
        txn = spans.start("txn:T1", "transaction")
        assert spans.current() is None  # the detached span never stacked
        with spans.span("invoke:S1", "invoke", parent=txn) as child:
            assert spans.current() is child
            assert child.parent_id == txn.span_id
        spans.end(txn, status="committed")
        assert txn.status == "committed"

    def test_end_is_idempotent(self):
        clock = [0.0]
        spans = SpanCollector(now=lambda: clock[0])
        span = spans.start("s", "rpc")
        clock[0] = 1.0
        spans.end(span, status="ok")
        clock[0] = 9.0
        spans.end(span, status="error")  # ignored: already finished
        assert span.status == "ok"
        assert span.duration == 1.0

    def test_ending_a_non_top_span_removes_exactly_that_span(self):
        spans = SpanCollector(lambda: 0.0)
        outer = spans.span("outer", "invoke").span
        middle = spans.span("middle", "rpc").span
        inner = spans.span("inner", "service").span
        spans.end(middle, status="fault")
        assert spans.current() is inner
        assert "open=2" in repr(spans)
        spans.end(middle, status="ok")  # a second end is a no-op
        assert middle.status == "fault"
        assert spans.current() is inner and "open=2" in repr(spans)
        spans.end(inner)
        assert spans.current() is outer
        spans.end(outer)
        assert spans.current() is None

    def test_report_artifact_is_pinned(self, tmp_path):
        """The span stack is maintained by identity: the observability
        artifact of Fig. 1 with a fault is the same bytes as when the
        stack compared spans field by field.  A fresh interpreter, since
        transaction ids count per process."""
        path = tmp_path / "report.json"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        subprocess.run(
            [sys.executable, "-m", "repro", "report", "--fault", "AP5:S5",
             "--json-out", str(path)],
            check=True, env=env, stdout=subprocess.DEVNULL,
        )
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "899c99b22367fc3e2ae7359877b296357744e0d81304f4029a9c0c7efad48f09"
        )

    def test_context_manager_captures_exception_type(self):
        spans = SpanCollector(lambda: 0.0)
        with pytest.raises(RuntimeError):
            with spans.span("boom", "service"):
                raise RuntimeError("x")
        assert spans.spans[0].status == "error:RuntimeError"
        assert spans.spans[0].finished

    def test_span_rule_names_faults_and_disconnections(self):
        spans = SpanCollector(lambda: 0.0)
        for error in (PeerDisconnected("B"), ServiceFault("Crash", "x"), KeyError("k")):
            with pytest.raises(type(error)):
                with spans.span("step", "invoke"):
                    raise error
        with spans.span("step", "invoke") as span:
            spans.end(span, status="reused")
        assert [(s.status, s.attrs) for s in spans.spans] == [
            ("disconnected", {"dead_peer": "B"}),
            ("fault", {"fault_name": "Crash"}),
            ("error:KeyError", {}),
            ("reused", {}),
        ]
        assert spans.current() is None

    def test_slowest_orders_by_duration(self):
        clock = [0.0]
        spans = SpanCollector(now=lambda: clock[0])
        for i, took in enumerate((0.3, 0.1, 0.7, 0.2, 0.6, 0.4, 0.5)):
            clock[0] = 0.0
            span = spans.start(f"s{i}", "rpc")
            clock[0] = took
            spans.end(span)
        spans.start("open", "rpc")
        assert [s.name for s in spans.slowest()] == ["s2", "s4", "s6", "s5", "s0"]

    def test_attributes_are_one_mapping_stored_as_text(self):
        spans = SpanCollector(lambda: 0.0)
        assert spans.start("t", "transaction", attrs={"attempt": 2}).attrs == {"attempt": "2"}
        with spans.span("s", "service") as span:
            assert span.attrs == {}
        # A stray keyword is an error, not an attribute named after it.
        with pytest.raises(TypeError, match="unexpected keyword argument 'detached'"):
            spans.start("t", "transaction", detached=True)
        with pytest.raises(TypeError, match="unexpected keyword argument 'target'"):
            spans.span("s", "rpc", target="AP2")

    def test_summary_counts(self):
        spans = SpanCollector(lambda: 0.0)
        spans.end(spans.start("a", "rpc"), status="ok")
        spans.start("b", "rpc")  # left open
        summary = spans.summary()
        assert summary["total"] == 2
        assert summary["open"] == 1
        assert summary["by_kind"] == {"rpc": 2}

    def test_json_round_trip(self):
        clock = [0.0]
        spans = SpanCollector(now=lambda: clock[0])
        parent = spans.start("p", "invoke", peer="AP1", txn_id="T1", attrs={"target": "AP2"})
        clock[0] = 0.5
        spans.end(parent, status="fault", fault_name="Crash")
        text = stable_json(spans.to_dict())
        data = json.loads(text)  # must be strict JSON
        assert data["summary"]["total"] == 1
        assert data["spans"] == [parent.to_dict()]
        assert data["spans"][0]["duration"] == 0.5

    def test_span_str_renders(self):
        span = Span(1, "s", "rpc")
        assert "running" in str(span)


class TestExport:
    def test_sanitize_replaces_non_finite(self):
        messy = {
            "inf": float("inf"),
            "nan": float("nan"),
            "nested": [1.0, {"neg": float("-inf")}],
            3: "int key",
        }
        clean = sanitize_for_json(messy)
        assert clean["inf"] is None and clean["nan"] is None
        assert clean["nested"][1]["neg"] is None
        assert clean["3"] == "int key"

    def test_stable_json_sorted_and_strict(self):
        text = stable_json({"b": 1, "a": float("inf")})
        assert text.index('"a"') < text.index('"b"')
        assert "Infinity" not in text
        assert json.loads(text) == {"a": None, "b": 1}

    def test_write_json_artifact(self, tmp_path):
        path = tmp_path / "sub" / "artifact.json"
        written = write_json_artifact(str(path), {"x": [1.0, float("nan")]})
        assert written == str(path)
        assert json.loads(path.read_text()) == {"x": [1.0, None]}
        assert path.read_text().endswith("\n")


class TestMetricsHistograms:
    def test_record_value_and_percentiles(self):
        metrics = MetricsCollector()
        for v in (0.1, 0.2, 0.3):
            metrics.record_value("rpc_latency", v)
        assert metrics.p50("rpc_latency") == 0.2
        assert metrics.percentile("rpc_latency", 95) == 0.3
        assert metrics.histogram("rpc_latency").max == 0.3

    def test_unsampled_histograms_are_none(self):
        metrics = MetricsCollector()
        assert metrics.p50("nothing") is None
        assert metrics.percentile("nothing", 95) is None

    def test_detection_feeds_latency_histogram(self):
        metrics = MetricsCollector()
        metrics.record_detection("P", "Q", 1.0, 1.5)
        assert metrics.histogram("detection_latency").count == 1
        assert metrics.detection_latency() == pytest.approx(0.5)

    def test_metrics_json_round_trip(self):
        metrics = MetricsCollector()
        metrics.incr("messages")
        metrics.record_message("abort")
        metrics.record_value("rpc_latency", 0.01)
        metrics.record_value("rpc_latency", 0.03)
        metrics.record_detection("AP3", "AP6", 1.0, 1.01)
        metrics.record_txn_outcome("T1", "aborted")
        text = stable_json(metrics.to_dict())
        assert "Infinity" not in text and "NaN" not in text
        data = json.loads(text)
        assert data["histograms"]["rpc_latency"]["p50"] == 0.01
        assert data["histograms"]["rpc_latency"]["p95"] == 0.03
        assert data["counters"]["messages.abort"] == 1
        assert len(data["detections"]) == 1
        assert data["histograms"]["detection_latency"]["count"] == 1
        assert data["txn_outcomes"] == {"T1": "aborted"}

    def test_empty_collector_exports_null_detection_latency(self):
        data = json.loads(stable_json(MetricsCollector().to_dict()))
        assert data["detection_latency"] is None


class TestReport:
    def _populated(self):
        metrics = MetricsCollector()
        metrics.record_message("invoke")
        metrics.record_value("rpc_latency", 0.01)
        metrics.record_txn_outcome("T1", "committed")
        spans = SpanCollector(lambda: 0.0)
        spans.end(spans.start("rpc:S1", "rpc", peer="AP1"))
        return metrics, spans

    def test_run_summary_shape(self):
        metrics, spans = self._populated()
        summary = run_summary(metrics, spans)
        assert summary["outcomes"] == {"committed": 1}
        assert summary["messages"] == {"invoke": 1}
        assert summary["histograms"]["rpc_latency"]["count"] == 1
        assert summary["detection_latency"] is None
        assert summary["spans"]["total"] == 1
        assert summary["slowest_spans"][0]["name"] == "rpc:S1"
        json.dumps(summary, allow_nan=False)

    def test_render_report_sections(self):
        metrics, spans = self._populated()
        text = render_report(metrics, spans, title="unit report")
        assert "== unit report ==" in text
        assert "-- transaction outcomes --" in text
        assert "-- message breakdown --" in text
        assert "rpc_latency" in text
        assert "-- slowest spans --" in text

    def test_render_report_without_spans(self):
        metrics = MetricsCollector()
        text = render_report(metrics)
        assert "-- spans --" not in text
        assert "(none)" in text
