"""Cross-process determinism of seeded runs.

Peer RNG streams used to be derived with ``seed ^ hash(peer_id)``;
``hash(str)`` is salted per process (PYTHONHASHSEED), so the "same"
seeded run produced different fault patterns in different interpreter
processes.  Every seeded stream now comes from :func:`stable_seed`.
The regression test runs one small chaos run — planned service faults,
crashes and a replica, all drawn from seeded streams — in two
subprocesses with *different* hash seeds and asserts the summaries come
out identical.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.sim.rng import SeededRng, stable_seed

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: A run whose summary depends on every seeded stream: the fault plan,
#: the workload, the scheduler's arrivals and the ring of replicas.
SCENARIO_SCRIPT = """
import json
from repro.chaos import ChaosConfig, run_chaos

config = ChaosConfig(seed=4, txns=12, fault_rate=0.3, crash_rate=0.1, replicas=1)
print(json.dumps(run_chaos(config).summary, sort_keys=True))
"""


def _run_with_hash_seed(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", SCENARIO_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestStableSeed:
    def test_stable_across_calls_and_labels(self):
        assert stable_seed(42, "AP1") == stable_seed(42, "AP1")
        assert stable_seed(42, "AP1") != stable_seed(42, "AP2")
        assert stable_seed(1, "AP1") != stable_seed(2, "AP1")

    def test_fits_rng_seed_range(self):
        for label in ("AP1", "a-very-long-peer-identifier", ""):
            seed = stable_seed(2**31 - 1, label)
            assert 0 <= seed <= 0x7FFFFFFF
            SeededRng(seed)  # accepted as-is


class TestCrossProcessDeterminism:
    def test_trace_identical_under_different_hash_seeds(self):
        first = _run_with_hash_seed("0")
        second = _run_with_hash_seed("4242")
        assert first == second
        # The run must actually take seeded fault branches, otherwise
        # this test would pass vacuously.
        summary = json.loads(first)
        kinds = {event["kind"] for event in summary["plan"]["events"]}
        assert {"service_fault", "crash"} <= kinds
        assert set(summary["outcomes"].values()) - {"committed"}
