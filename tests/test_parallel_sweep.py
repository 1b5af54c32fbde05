"""Parallel sweep determinism (repro.sim.parallel).

The contract: a sweep run with workers=N produces byte-identical output
to workers=1 — same rendered table, same JSON payload, same aggregate
metrics.  Serial is the oracle; these tests force the fork-pool path
with workers=2 regardless of how many cores the machine has.
"""

import subprocess
import sys

from repro.chaos import ChaosConfig, chaos_sweep
from repro.obs import stable_json
from repro.sim.metrics import MetricsCollector
from repro.sim.parallel import available_cores, parallel_map, resolve_workers
from repro.sim.throughput import throughput_sweep
from tests.chaos_mutations import mutated

SMALL = ChaosConfig(txns=5, providers=3)


class TestParallelMap:
    def test_serial_fallback_preserves_order(self):
        assert parallel_map(abs, [-3, 2, -1], workers=1) == [3, 2, 1]

    def test_pool_preserves_order(self):
        assert parallel_map(abs, list(range(-10, 0)), workers=2) == list(
            range(10, 0, -1)
        )

    def test_single_item_never_forks(self):
        assert parallel_map(abs, [-7], workers=8) == [7]

    def test_resolve_workers(self):
        assert resolve_workers(1, 10) == 1
        assert resolve_workers(4, 2) == 2  # clamped to items
        assert resolve_workers(0, 100) == max(1, available_cores())
        assert resolve_workers(0, 0) == 1

    def test_worker_exception_propagates(self):
        import pytest

        with pytest.raises(ZeroDivisionError):
            parallel_map(_reciprocal, [1, 0, 2], workers=2)


def _reciprocal(x):
    return 1 / x


class TestChaosSweepIdentity:
    def test_byte_identical_table_and_metrics(self):
        m1, m2 = MetricsCollector(), MetricsCollector()
        kwargs = dict(seeds=[0, 1, 2], concurrencies=(2,))
        serial, f1 = chaos_sweep(SMALL, metrics=m1, workers=1, **kwargs)
        parallel, f2 = chaos_sweep(SMALL, metrics=m2, workers=2, **kwargs)
        assert serial.render() == parallel.render()
        assert stable_json(serial.to_dict()) == stable_json(parallel.to_dict())
        assert stable_json(m1.snapshot()) == stable_json(m2.snapshot())
        assert len(f1) == len(f2)

    def test_failures_are_reproduced_in_parent(self):
        # A mutated run fails the oracle; the parallel path must hand
        # back full, shrink-ready results for exactly the same configs.
        # Forked workers inherit the class-level patch.
        bad = ChaosConfig(txns=6, providers=3)
        # Several cells: one item never reaches the pool.
        kwargs = dict(seeds=[1, 2, 3], concurrencies=(2,))
        with mutated("skip_undo"):
            serial, serial_failures = chaos_sweep(bad, workers=1, **kwargs)
            parallel, parallel_failures = chaos_sweep(bad, workers=2, **kwargs)
        assert serial.render() == parallel.render()
        assert serial_failures
        assert [f.config for f in serial_failures] == [
            f.config for f in parallel_failures
        ]
        for s, p in zip(serial_failures, parallel_failures):
            assert [v.to_dict() for v in s.violations] == [
                v.to_dict() for v in p.violations
            ]


class TestThroughputSweepIdentity:
    def test_byte_identical_table(self):
        serial = throughput_sweep(smoke=True, workers=1)
        parallel = throughput_sweep(smoke=True, workers=2)
        assert serial.render() == parallel.render()
        assert stable_json(serial.to_dict()) == stable_json(parallel.to_dict())


class TestCliWorkers:
    def test_bench_workers_flag(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "--smoke", "--workers", "2"],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert "T1: commit throughput" in result.stdout

    def test_chaos_sweep_workers_flag(self):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "chaos", "--sweep",
                "--seeds", "2", "--txns", "5", "--providers", "3",
                "--workers", "2",
            ],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert "chaos_runs = 4" in result.stdout
