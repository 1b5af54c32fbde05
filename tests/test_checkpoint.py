"""Checkpointed recovery, WAL group commit, and the typed config surface.

Covers the R1 tentpole (checkpoint store round-trips, torn-file
fallback, bounded tail replay, segment retention, group-commit
batching/barriers/crash-discard) plus the typed surface:
`DurabilityPolicy` and `ChaosConfig`.
"""

import copy
import json
from dataclasses import replace

import pytest

from repro.axml.document import AXMLDocument
from repro.chaos import ChaosConfig, FaultPlanner, run_chaos
from repro.chaos.planner import FaultEvent
from repro.p2p.failure import POINTS
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import UpdateService
from repro.sim.disk import SimDisk
from repro.sim.kernel import Clock, EventQueue
from repro.sim.metrics import MetricsCollector
from repro.txn.checkpoint import Checkpoint, CheckpointStore
from repro.txn.durable_wal import DurableWal
from repro.txn.modes import DurabilityPolicy
from repro.txn.recovery import FaultPolicy
from repro.txn.wal import LogEntry
from repro.xmlstore.serializer import canonical


def _entry(seq, txn_id="t1", doc="D"):
    return LogEntry(
        seq=seq, txn_id=txn_id, kind="update", document_name=doc,
        action_xml='<action type="insert"/>', records=[], timestamp=0.1,
    )


@pytest.fixture
def disk():
    return SimDisk()


def durable_entries(peer):
    """The entries a crash now would leave of *peer*'s WAL: a copy of
    the disk is crashed and a fresh WAL recovers from it."""
    disk = copy.deepcopy(peer.wal.disk)
    disk.crash(peer.wal.policy.directory)
    wal = DurableWal(peer.wal.policy, peer.peer_id, disk, MetricsCollector(),
                     EventQueue(Clock()), dict)
    return [e.seq for e in wal.last_recovery.entries]


def live_entries(peer):
    return [e.seq for e in peer.wal.load().entries]


def durable_world(**policy_kwargs):
    """Origin + durable worker; policy knobs come from the caller."""
    network = SimNetwork()
    origin = AXMLPeer("Origin", network)
    worker = AXMLPeer(
        "Worker", network,
        durability=DurabilityPolicy(directory="Worker", **policy_kwargs),
    )
    worker.host_document(AXMLDocument.from_xml("<D><slots/></D>", name="D"))
    worker.host_service(UpdateService(
        ServiceDescriptor("book", params=("c",), target_document="D"),
        '<action type="insert"><data><slot c="$c"/></data>'
        "<location>Select d from d in D//slots;</location></action>",
    ))
    return network, origin, worker


def durable_origin(**policy_kwargs):
    """A durable origin that writes its own document with local submits:
    no message between two submits, so only the batch size, the flush
    timer or the commit's tombstone flushes the group-commit buffer."""
    network = SimNetwork()
    origin = AXMLPeer(
        "Origin", network,
        durability=DurabilityPolicy(directory="Origin", **policy_kwargs),
    )
    origin.host_document(AXMLDocument.from_xml("<D><slots/></D>", name="D"))
    return network, origin


def submit_one(origin, txn, c):
    origin.submit(
        txn.txn_id,
        f'<action type="insert"><data><slot c="{c}"/></data>'
        "<location>Select d from d in D//slots;</location></action>",
    )


def commit_one(origin, c):
    txn = origin.begin_transaction()
    origin.invoke(txn.txn_id, "Worker", "book", {"c": c})
    origin.commit(txn.txn_id)
    return txn


class TestCheckpointStore:
    def test_round_trip(self, disk):
        store = CheckpointStore(disk, "P1", "P1")
        ckpt = Checkpoint(
            index=3, last_seq=9, tail_segment=4,
            documents={"D": "<D><slots/></D>", "E": "<E/>"},
            entries=[_entry(7), _entry(9)],
        )
        store.write(ckpt)
        loaded, torn = store.load_latest()
        assert torn == 0
        assert loaded.index == 3
        assert loaded.last_seq == 9
        assert loaded.tail_segment == 4
        assert loaded.documents == ckpt.documents
        assert [e.seq for e in loaded.entries] == [7, 9]
        assert loaded.entries[0].txn_id == "t1"

    def test_torn_newest_falls_back_to_previous(self, disk):
        store = CheckpointStore(disk, "P1", "P1")
        store.write(Checkpoint(index=1, last_seq=2, tail_segment=2,
                               documents={"D": "<D/>"}))
        store.write(Checkpoint(index=2, last_seq=5, tail_segment=3,
                               documents={"D": "<D><x/></D>"}))
        assert store.tear_newest() is not None
        loaded, torn = store.load_latest()
        assert torn == 1
        assert loaded.index == 1
        assert loaded.documents == {"D": "<D/>"}
        # Read-only: the torn file stays for deterministic replays.
        assert len(store.paths()) == 2

    def test_every_checkpoint_torn_means_none(self, disk):
        store = CheckpointStore(disk, "P1", "P1")
        store.write(Checkpoint(index=1, last_seq=1, tail_segment=1))
        store.tear_newest()
        loaded, torn = store.load_latest()
        assert loaded is None
        assert torn == 1

    def test_trailing_garbage_invalidates(self, disk):
        store = CheckpointStore(disk, "P1", "P1")
        path = store.write(Checkpoint(index=1, last_seq=1, tail_segment=1))
        disk.append(path, b"junk\n")
        assert store.load_latest() == (None, 1)

    def test_retire_keeps_newer_generations(self, disk):
        store = CheckpointStore(disk, "P1", "P1")
        for i in (1, 2, 3):
            store.write(Checkpoint(index=i, last_seq=i, tail_segment=i))
        removed = store.retire(2)
        assert len(removed) == 1
        assert [store._index_of(p) for p in store.paths()] == [2, 3]


class TestWalCheckpointing:
    def test_checkpoints_bound_recovery_replay(self):
        network, origin, worker = durable_world(checkpoint_every=4)
        for i in range(11):
            commit_one(origin, f"c{i}")
        worker.crash()
        before = network.metrics.get("recovery_replay_entries")
        worker.rejoin()
        replayed = network.metrics.get("recovery_replay_entries") - before
        assert replayed <= 4
        assert network.metrics.get("checkpoints") >= 2
        assert network.metrics.get("checkpoint_bytes") > 0
        # All 11 committed effects survived the bounded replay.
        assert worker.get_axml_document("D").to_xml().count("<slot c=") == 11

    def test_checkpoint_retention_truncates_segments(self):
        network, origin, worker = durable_world(checkpoint_every=2)
        for i in range(10):
            commit_one(origin, f"c{i}")
        directory = worker.wal.policy.directory
        ckpts = [n for n in worker.wal.disk.names(directory) if n.endswith(".ckpt")]
        segs = [n for n in worker.wal.disk.names(directory) if n.endswith(".seg")]
        # Two generations of checkpoints, and only the segments at or
        # past the previous generation's tail watermark survive.
        assert len(ckpts) == 2
        store = worker.wal.checkpoints
        previous, _ = store.load_latest()
        older = store._parse(store.paths()[0])
        assert all(
            int(name[4:-4]) >= older.tail_segment for name in segs
        )
        assert previous.index == older.index + 1

    def test_torn_checkpoint_recovery_regression(self):
        """A crash mid-publish tears the newest checkpoint; recovery
        must fall back to the previous generation + a longer replay and
        still reconstruct the exact committed state."""
        network, origin, worker = durable_world(checkpoint_every=2)
        for i in range(9):
            commit_one(origin, f"c{i}")
        expected = canonical(worker.get_axml_document("D").document)
        worker.crash()
        worker.wal.checkpoints.tear_newest()
        worker.rejoin()
        assert network.metrics.get("checkpoints_torn") == 1
        assert canonical(worker.get_axml_document("D").document) == expected
        assert not worker.wal.load().entries

    def test_in_flight_share_survives_checkpointing(self):
        network, origin, worker = durable_world(checkpoint_every=2)
        for i in range(4):
            commit_one(origin, f"c{i}")
        txn = origin.begin_transaction()
        origin.invoke(txn.txn_id, "Worker", "book", {"c": "inflight"})
        worker.crash()
        assert worker.rejoin() == 1
        assert worker.resolve_in_doubt(txn.txn_id, committed=False) == "aborted"
        assert "inflight" not in worker.get_axml_document("D").to_xml()
        assert worker.get_axml_document("D").to_xml().count("<slot c=") == 4

    def test_checkpoint_restores_missing_document(self):
        network, origin, worker = durable_world(checkpoint_every=2)
        for i in range(4):
            commit_one(origin, f"c{i}")
        expected = worker.get_axml_document("D").to_xml()
        worker.crash()
        # Model a restart on a host that lost the store's materialized
        # document: the checkpoint snapshot brings it back.
        del worker.documents["D"]
        worker.rejoin()
        assert worker.get_axml_document("D").to_xml() == expected


    def test_lost_document_is_restored_before_compensation(self):
        """The checkpoint snapshot is back in place when ``rejoin``
        returns, so the recovered share compensates against it."""
        network, origin, worker = durable_world(checkpoint_every=2)
        for i in range(4):
            commit_one(origin, f"c{i}")
        txn = origin.begin_transaction()
        origin.invoke(txn.txn_id, "Worker", "book", {"c": "inflight"})
        worker.crash()
        del worker.documents["D"]
        assert worker.rejoin() == 1
        assert worker.resolve_in_doubt(txn.txn_id, committed=False) == "aborted"
        restored = worker.get_axml_document("D").to_xml()
        assert restored.count("<slot c=") == 4 and "inflight" not in restored


class TestGroupCommit:
    def test_appends_buffer_until_commit_barrier(self):
        network, origin = durable_origin(wal_batch=8)
        txn = origin.begin_transaction()
        submit_one(origin, txn, "a")
        submit_one(origin, txn, "b")
        assert durable_entries(origin) == []          # nothing synced yet
        assert live_entries(origin) == [1, 2]
        origin.commit(txn.txn_id)
        # The tombstone barrier synced the batch before truncating.
        assert network.metrics.get("wal_batch_flushes") == 1
        assert durable_entries(origin) == []
        assert not origin.wal.load().entries          # then truncated

    def test_flush_on_prepare_barrier_at_hand_off(self):
        network, origin, worker = durable_world(wal_batch=8)
        txn = origin.begin_transaction()
        origin.invoke(txn.txn_id, "Worker", "book", {"c": "a"})
        # The write-ahead barrier flushed at the share hand-off: the
        # entry is durable before the invoker saw the result.
        assert durable_entries(worker) == [1]

    def test_batch_size_triggers_flush(self):
        network, origin = durable_origin(wal_batch=2)
        txn = origin.begin_transaction()
        submit_one(origin, txn, "a")
        assert durable_entries(origin) == []
        submit_one(origin, txn, "b")
        assert durable_entries(origin) == [1, 2]      # batch filled -> one sync
        assert network.metrics.get("wal_batch_flushes") == 1

    def test_flush_interval_quantum(self):
        network, origin = durable_origin(wal_batch=8)
        txn = origin.begin_transaction()
        submit_one(origin, txn, "a")
        assert durable_entries(origin) == []
        network.events.run_until(network.clock.now + 0.1)
        assert durable_entries(origin) == [1]
        # The one-shot timer drained: run_all() must not spin.
        assert not network.events.step()

    def test_crash_discards_unflushed_and_undoes_effects(self):
        network, origin = durable_origin(wal_batch=8)
        pre = canonical(origin.get_axml_document("D").document)
        txn = origin.begin_transaction()
        submit_one(origin, txn, "lost")
        origin.crash()
        # Unsynced entries are gone after restart, and the store shows
        # no trace of their effects.
        assert network.metrics.get("wal_unflushed_discarded") == 1
        assert canonical(origin.get_axml_document("D").document) == pre
        assert origin.rejoin() == 0
        assert not origin.wal.load().entries

    def test_flushed_batch_survives_restart(self):
        network, origin = durable_origin(wal_batch=8)
        txn = origin.begin_transaction()
        submit_one(origin, txn, "a")
        assert origin.wal.flush() == 1
        assert [e.seq for e in origin.wal.reload()] == [1]

    def test_unflushed_batch_dies_with_a_restart(self):
        network, origin = durable_origin(wal_batch=8)
        txn = origin.begin_transaction()
        submit_one(origin, txn, "a")
        assert origin.wal.reload() == []

    def test_partial_undo_keeps_handed_off_entries_durable(self):
        """§3.1 write-ahead across a partial undo: the worker undoes only
        its faulted second invocation, re-appending the first one's entry
        after the tombstone.  That entry's result was already handed off,
        so it must be synced before a crash can cut the tail."""
        network, origin, worker = durable_world(wal_batch=8)
        injector = network.injector
        origin.set_fault_policy("book", [FaultPolicy(absorb=True)])
        txn = origin.begin_transaction()
        origin.invoke(txn.txn_id, "Worker", "book", {"c": "a"})
        injector.fault_service("Worker", "book", "boom", point="after_execute")
        assert origin.invoke(txn.txn_id, "Worker", "book", {"c": "b"}) == []
        assert network.metrics.get("partial_aborts") == 1
        assert durable_entries(worker) == live_entries(worker)
        worker.crash()                                 # before any later barrier
        origin.commit(txn.txn_id)
        assert worker.rejoin() == 1
        assert worker.resolve_in_doubt(txn.txn_id, committed=True) == "committed"
        slots = worker.get_axml_document("D").to_xml()
        assert 'c="a"' in slots and 'c="b"' not in slots


class TestCrashConsistencyEveryPoint:
    """Property-style: crash a peer at every protocol point with
    checkpointing + batching on; the recovered committed state must be
    byte-identical to a run that never saw the crashed transaction."""

    POLICY = dict(checkpoint_every=2, wal_batch=2)

    def _run_with_crash(self, point, tear):
        network, origin, worker = durable_world(**self.POLICY)
        injector = network.injector
        for i in range(3):
            commit_one(origin, f"pre{i}")
        injector.crash_peer_during(
            "Worker", "book", point, restart_delay=0.25,
            tear_checkpoint=tear,
        )
        doomed = origin.begin_transaction()
        with pytest.raises(Exception):
            origin.invoke(doomed.txn_id, "Worker", "book", {"c": "doomed"})
        network.events.run_all()                      # restart + rejoin
        assert not worker.disconnected
        context = worker.manager.contexts.get(doomed.txn_id)
        if context is not None and not context.is_finished:
            worker.resolve_in_doubt(doomed.txn_id, committed=False)
        for i in range(3):
            commit_one(origin, f"post{i}")
        assert not worker.wal.load().entries
        return canonical(worker.get_axml_document("D").document)

    def _run_without_crash(self):
        network, origin, worker = durable_world(**self.POLICY)
        for i in range(3):
            commit_one(origin, f"pre{i}")
        for i in range(3):
            commit_one(origin, f"post{i}")
        return canonical(worker.get_axml_document("D").document)

    @pytest.mark.parametrize("tear", [False, True])
    @pytest.mark.parametrize("point", POINTS)
    def test_recovered_state_matches_uncrashed_twin(
        self, point, tear
    ):
        crashed = self._run_with_crash(point, tear)
        clean = self._run_without_crash()
        assert crashed == clean


class TestModes:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DurabilityPolicy(directory="x", wal_batch=0)
        with pytest.raises(ValueError):
            DurabilityPolicy(directory="x", checkpoint_every=-1)
        with pytest.raises(ValueError, match="directory"):
            DurabilityPolicy(directory="")

    def test_peer_accepts_policy_and_enum(self):
        network, origin, worker = durable_world()
        assert worker.wal.policy.wal_batch == 1  # the peer's own policy
        network.disconnect("Worker")
        worker.rejoin()
        assert not worker.disconnected


class TestRunSweepConfig:
    def test_implicit_durability(self):
        assert not ChaosConfig().durability
        assert ChaosConfig(crash_rate=0.1).durability
        assert ChaosConfig(checkpoint_every=4).durability
        assert ChaosConfig(wal_batch=8).durability
        assert ChaosConfig(replicas=1).durability

    def test_cli_flags_map_onto_run_config(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "chaos", "--seed", "3", "--txns", "5",
            "--checkpoint-every", "4", "--wal-batch", "8",
            "--crash-rate", "0.25", "--ops", "2",
        ])
        config = ChaosConfig.from_namespace(args)
        assert config == ChaosConfig(
            seed=3, txns=5, checkpoint_every=4, wal_batch=8, crash_rate=0.25,
            ops_per_txn=2,
        )

    def test_bench_parser_shares_the_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args([
            "bench", "--smoke", "--seed", "9", "--workers", "2",
            "--json-out", "t1.json",
        ])
        assert (args.smoke, args.seed, args.workers, args.json_out) == (
            True, 9, 2, "t1.json",
        )
        defaults = parser.parse_args(["bench"])
        assert (defaults.seed, defaults.workers) == (7, 1)
        # bench runs the T1 sweep, not a chaos run: no chaos flag parses.
        for flag in (["--replicas", "2"], ["--sharding"], ["--seeds", "50"]):
            with pytest.raises(SystemExit) as exit_info:
                parser.parse_args(["bench", *flag])
            assert exit_info.value.code == 2

    def test_chaos_accepts_run_config_without_warning(self):
        result = run_chaos(ChaosConfig(txns=4, fault_rate=0.0))
        assert result.ok

    def test_config_mixing_rejected(self):
        # One spelling: a config object, never loose keyword arguments.
        with pytest.raises(TypeError):
            run_chaos(ChaosConfig(), txns=4)
        with pytest.raises(TypeError):
            run_chaos(txns=4)


class TestChaosCheckpointing:
    CONFIG = ChaosConfig(
        seed=1, txns=10, fault_rate=0.2, crash_rate=0.3, durability=True,
        checkpoint_every=3, wal_batch=3,
    )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            ChaosConfig(checkpoint_every=-1)
        with pytest.raises(ValueError, match="wal_batch"):
            ChaosConfig(wal_batch=0)

    def test_to_dict_elides_defaults(self):
        plain = ChaosConfig(seed=1).to_dict()
        assert "checkpoint_every" not in plain
        assert "wal_batch" not in plain
        tuned = self.CONFIG.to_dict()
        assert tuned["checkpoint_every"] == 3
        assert tuned["wal_batch"] == 3
        assert ChaosConfig.from_dict(tuned) == self.CONFIG

    def test_fault_event_elides_tear_flag(self):
        assert "tear_checkpoint" not in FaultEvent(kind="crash").to_dict()
        event = FaultEvent(kind="crash", tear_checkpoint=True)
        assert event.to_dict()["tear_checkpoint"] is True
        assert FaultEvent.from_dict(event.to_dict()) == event

    def test_tear_flag_only_sampled_with_checkpoints(self):
        providers = ["AP1", "AP2"]
        config = ChaosConfig(
            seed=11, txns=40, fault_rate=0.0, arrival_rate=40.0, crash_rate=0.5
        )
        off = FaultPlanner(config, providers).plan()
        on = FaultPlanner(replace(config, checkpoint_every=4), providers).plan()
        assert all(not e.tear_checkpoint for e in off.events)
        assert any(e.tear_checkpoint for e in on.events)
        # The tear draw happens after the base fields, so existing
        # crash schedules keep their peers/points/delays.
        for base, extra in zip(off.events, on.events):
            assert (base.peer, base.point, base.delay) == (
                extra.peer, extra.point, extra.delay
            )

    #: The same crash mix with three replicas, shipped two entries at a
    #: time: every logged entry reaches the WAL, checkpoints and ships.
    REPLICATED = [
        ChaosConfig(
            seed=seed, txns=20, ops_per_txn=5, fault_rate=0.2, crash_rate=0.3,
            durability=True, checkpoint_every=4, wal_batch=4, replicas=3, ship_batch=2,
        )
        for seed in (1, 2, 3)
    ]

    def test_checkpointed_crash_chaos_is_clean(self):
        for config in [self.CONFIG, *self.REPLICATED]:
            result = run_chaos(config)
            assert result.ok, (config.seed, result.violations)
            counters = result.summary["metrics"]["counters"]
            assert counters.get("wal_batch_flushes", 0) > 0
            assert counters.get("checkpoints", 0) >= 1

    def test_checkpointed_summary_is_byte_identical(self):
        a = json.dumps(run_chaos(self.CONFIG).summary, sort_keys=True)
        b = json.dumps(run_chaos(self.CONFIG).summary, sort_keys=True)
        assert a == b
