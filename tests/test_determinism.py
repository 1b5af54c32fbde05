"""Cross-process determinism of seeded runs.

Peer RNG streams used to be derived with ``seed ^ hash(peer_id)``;
``hash(str)`` is salted per process (PYTHONHASHSEED), so the "same"
seeded run produced different fault patterns in different interpreter
processes.  The regression test runs one fault-probability scenario in
two subprocesses with *different* hash seeds and asserts the protocol
traces come out identical.
"""

import os
import pathlib
import subprocess
import sys

from repro.sim.rng import SeededRng, stable_seed

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: A run whose trace depends on per-peer RNG draws: three workers host
#: flaky services (fault_probability=0.5 drawn from the hosting peer's
#: RNG); eight transactions invoke them until one faults.
SCENARIO_SCRIPT = """
from repro.axml.document import AXMLDocument
from repro.errors import ServiceFault
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import FunctionService
from repro.sim.trace import TraceRecorder

network = SimNetwork()
origin = AXMLPeer("alpha", network, seed=11)
workers = []
for name in ("beta", "gamma", "delta"):
    peer = AXMLPeer(name, network, seed=11)
    peer.host_document(
        AXMLDocument.from_xml("<D><items/></D>", name="D_" + name)
    )
    peer.host_service(
        FunctionService(
            ServiceDescriptor("flaky_" + name, kind="function"),
            body=lambda params: ["<ok/>"],
            fault_name="Flaky",
            fault_probability=0.5,
        )
    )
    workers.append(peer)

recorder = TraceRecorder(network)
for _ in range(8):
    txn = origin.begin_transaction()
    try:
        for peer in workers:
            origin.invoke(txn.txn_id, peer.peer_id, "flaky_" + peer.peer_id, {})
    except ServiceFault:
        continue  # backward recovery already aborted the transaction
    origin.commit(txn.txn_id)

for event in recorder.events:
    print(f"{event.kind}:{event.source}->{event.target}:{event.detail}")
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
        # The scenario must actually exercise RNG-dependent branches,
        # otherwise this test would pass vacuously.
        assert "fault:" in first
        assert "invoke:" in first
