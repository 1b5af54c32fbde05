"""Crash-and-restart recovery: peer-level (crash/rejoin/resolve) and the
chaos harness's crash fault kind."""

import contextlib
import json
import sys
from dataclasses import replace

import pytest

from repro.axml.document import AXMLDocument
from repro.chaos import ChaosConfig, FaultPlanner, run_chaos
from repro.cli import main
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import UpdateService
from repro.txn.modes import DurabilityPolicy
from repro.xmlstore.serializer import canonical


#: Audit events of a process touching the file system.
FILE_EVENTS = frozenset({
    "open", "os.listdir", "os.scandir", "os.mkdir", "os.rename", "os.remove",
    "os.rmdir", "os.truncate", "shutil.rmtree", "tempfile.mkdtemp", "tempfile.mkstemp",
})
#: Where the audit hook below records; an audit hook cannot be removed,
#: so it records only inside :func:`file_system_events`.
_RECORDER = []


def _audit(event, args):
    if _RECORDER and event in FILE_EVENTS:
        _RECORDER[-1].append((event, args[0]))


sys.addaudithook(_audit)


@contextlib.contextmanager
def file_system_events():
    """Every file-system audit event raised inside the block."""
    events = []
    _RECORDER.append(events)
    try:
        yield events
    finally:
        _RECORDER.remove(events)


def durable_world():
    network = SimNetwork()
    origin = AXMLPeer("Origin", network)
    worker = AXMLPeer(
        "Worker", network,
        durability=DurabilityPolicy(directory="Worker"),
    )
    worker.host_document(AXMLDocument.from_xml("<D><slots/></D>", name="D"))
    worker.host_service(UpdateService(
        ServiceDescriptor("book", params=("c",), target_document="D"),
        '<action type="insert"><data><slot c="$c"/></data>'
        "<location>Select d from d in D//slots;</location></action>",
    ))
    return network, origin, worker


class TestPeerCrash:
    def test_crash_loses_volatile_state(self):
        network, origin, worker = durable_world()
        txn = origin.begin_transaction()
        origin.invoke(txn.txn_id, "Worker", "book", {"c": "x"})
        assert len(worker.manager.log) == 1
        worker.crash()
        assert worker.disconnected
        assert not network.is_alive("Worker")
        assert len(worker.manager.log) == 0
        assert worker.manager.contexts == {}
        assert worker.chain_views() == {}
        assert network.metrics.get("peer_crashes") == 1

    def test_documents_survive_a_crash(self):
        network, origin, worker = durable_world()
        txn = origin.begin_transaction()
        origin.invoke(txn.txn_id, "Worker", "book", {"c": "x"})
        worker.crash()
        # The durable store keeps the (dirty) document content.
        assert "slot" in worker.get_axml_document("D").to_xml()

    def test_restart_compensates_aborted_txn_from_disk(self):
        network, origin, worker = durable_world()
        pre = canonical(worker.get_axml_document("D").document)
        txn = origin.begin_transaction()
        origin.invoke(txn.txn_id, "Worker", "book", {"c": "x"})
        worker.crash()
        assert worker.rejoin() == 1
        # The in-doubt context was rebuilt from the on-disk WAL.
        context = worker.manager.contexts[txn.txn_id]
        assert not context.is_finished
        assert [e.seq for e in worker.manager.log.entries_for(txn.txn_id)] == [1]
        assert worker.resolve_in_doubt(txn.txn_id, committed=False) == "aborted"
        assert canonical(worker.get_axml_document("D").document) == pre
        assert len(worker.manager.log) == 0
        assert not worker.wal.load().entries

    def test_restart_keeps_committed_txn_effects(self):
        network, origin, worker = durable_world()
        txn = origin.begin_transaction()
        origin.invoke(txn.txn_id, "Worker", "book", {"c": "y"})
        worker.crash()
        worker.rejoin()
        assert worker.resolve_in_doubt(txn.txn_id, committed=True) == "committed"
        assert 'c="y"' in worker.get_axml_document("D").to_xml()
        assert not worker.wal.load().entries  # commit truncated on disk too

    def test_default_rejoin_compensates_from_disk(self):
        """A caller that knows the transaction aborted around the dead
        peer settles every rebuilt share with ``committed=False``."""
        network, origin, worker = durable_world()
        pre = canonical(worker.get_axml_document("D").document)
        txn = origin.begin_transaction()
        origin.invoke(txn.txn_id, "Worker", "book", {"c": "x"})
        worker.crash()
        assert worker.rejoin() == 1
        assert [
            worker.resolve_in_doubt(txn_id, committed=False)
            for txn_id in list(worker.manager.contexts)
        ] == ["aborted"]
        assert canonical(worker.get_axml_document("D").document) == pre
        assert network.metrics.get("recovery_replay_entries") == 1

    def test_crash_during_own_service_execution(self):
        from repro.errors import PeerDisconnected, TransactionError

        network, origin, worker = durable_world()
        injector = network.injector
        injector.crash_peer_during("Worker", "book", "after_local_work",
                                   restart_delay=0.25)
        pre = canonical(worker.get_axml_document("D").document)
        txn = origin.begin_transaction()
        with pytest.raises((PeerDisconnected, TransactionError)):
            origin.invoke(txn.txn_id, "Worker", "book", {"c": "x"})
        assert worker.disconnected
        # The scheduled restart brings it back with an in-doubt share.
        network.events.run_all()
        assert not worker.disconnected
        assert len(worker.manager.log) == 1
        worker.resolve_in_doubt(txn.txn_id, committed=False)
        assert canonical(worker.get_axml_document("D").document) == pre


class TestCrashChaos:
    CONFIG = ChaosConfig(
        seed=1, txns=10, fault_rate=0.2, crash_rate=0.3, durability=True
    )

    def test_config_validation(self):
        # Crash faults work on the on-disk WAL, so they switch it on.
        assert ChaosConfig(crash_rate=0.5).durability
        assert not ChaosConfig().durability

    def test_crash_plan_extends_existing_plan(self):
        providers = [f"AP{i}" for i in range(1, 7)]
        config = ChaosConfig(seed=4, txns=20, fault_rate=0.5)
        base = FaultPlanner(config, providers).plan()
        crashy = FaultPlanner(replace(config, crash_rate=0.2), providers).plan()
        # Existing seeds keep their exact prefix: crash events are
        # sampled from a separate stream and appended.
        assert crashy.events[: len(base)] == base.events
        extra = crashy.events[len(base):]
        assert len(extra) == 4
        assert all(e.kind == "crash" and e.delay > 0 for e in extra)

    def test_crash_run_is_clean_and_crashes_fired(self):
        result = run_chaos(self.CONFIG)
        assert result.ok, result.violations
        assert any(e.kind == "crash" for e in result.plan.events)
        assert result.cluster.metrics.get("peer_crashes") >= 1
        assert result.cluster.metrics.get("peer_rejoins") >= 1
        assert result.summary["metrics"]["counters"]["wal_appends"] > 0

    def test_crash_sweep_summary_is_byte_identical(self):
        a = json.dumps(run_chaos(self.CONFIG).summary, sort_keys=True)
        b = json.dumps(run_chaos(self.CONFIG).summary, sort_keys=True)
        assert a == b

    def test_crash_skip_undo_is_flagged(self):
        from tests.chaos_mutations import mutated

        with mutated("crash_skip_undo"):
            result = run_chaos(self.CONFIG)
        assert not result.ok
        kinds = {v.kind for v in result.violations}
        # Recovery replayed from the (sabotaged) on-disk WAL: the lost
        # entry shows up both as an uncompensated marker and as a
        # disk/memory divergence.
        assert "compensation_missing" in kinds
        assert "wal_tail_inconsistent" in kinds

    def test_durable_chaos_touches_no_real_file(self):
        """WAL segments and checkpoints live on the network's simulated
        disk: a run with crashes, checkpoints and a torn checkpoint
        opens, lists, creates and removes nothing on the real file
        system."""
        config = ChaosConfig(
            seed=7, txns=20, fault_rate=0.2, crash_rate=0.3,
            checkpoint_every=4, wal_batch=4,
        )
        run_chaos(config)  # lazy imports read their modules once
        with file_system_events() as events:
            result = run_chaos(config)
        counters = result.summary["metrics"]["counters"]
        assert counters["peer_crashes"] and counters["checkpoints_torn"]
        assert counters["wal_unflushed_discarded"]
        assert events == []

    def test_cli_crash_smoke(self, capsys):
        code = main([
            "chaos", "--sweep", "--seeds", "2", "--txns", "6",
            "--fault-rate", "0.2", "--crash-rate", "0.3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos_violations = 0" in out
