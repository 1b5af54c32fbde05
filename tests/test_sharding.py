"""Elastic sharding: ring determinism, live migration, oracle predicates.

These pin the sharding subsystem (docs/SHARDING.md): the consistent-hash
ring is a pure function of ``(seed, members, key)`` — byte-stable across
processes and ``PYTHONHASHSEED`` values; a membership change moves only
the keys the new/old arcs own; live migration defers in-flight
transactions at the quiescence barrier and flips routing atomically; and
the oracle's shard predicates catch lost, duplicated, and mis-directed
placement.
"""

import math
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.axml.document import AXMLDocument
from repro.chaos import ChaosConfig, run_chaos
from repro.chaos.shrink import summary_text
from repro.p2p.distribution import distribute_fragment
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.p2p.sharding import PlacementDirectory, ShardCoordinator, ShardRing, moved_keys
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import UpdateService

D1 = "<D1><items/></D1>"

ADD_ITEM = (
    '<action type="insert"><data><item>$v</item></data>'
    "<location>Select d from d in D1//items;</location></action>"
)

#: Member names for the hypothesis ring properties — distinct short ids.
MEMBER_NAMES = st.lists(
    st.text(alphabet="ABCDEFGH", min_size=2, max_size=4),
    min_size=2,
    max_size=6,
    unique=True,
)


def make_sharded_cluster(seed=42, replicas=1, **coordinator_kwargs):
    """C1 (origin) + AP1..AP3 on a ring; D1/addItem placed by the ring.

    With ``seed=42`` the ring puts D1 on AP3 (replica AP1), and a new
    member named N15 takes over as D1's primary — pinned below.
    """
    network = SimNetwork()
    replication = network.replication
    peers = {pid: AXMLPeer(pid, network) for pid in ("C1", "AP1", "AP2", "AP3")}
    ring = ShardRing(seed=seed, members=["AP1", "AP2", "AP3"], replicas=replicas)
    coordinator = ShardCoordinator(network, ring, **coordinator_kwargs)
    owners = ring.lookup("D1")
    primary = owners[0]
    peers[primary].host_document(AXMLDocument.from_xml(D1, name="D1"))
    peers[primary].host_service(
        UpdateService(
            ServiceDescriptor("addItem", params=("v",), target_document="D1"),
            ADD_ITEM,
        )
    )
    replication.register_primary("D1", primary)
    replication.register_service("addItem", primary)
    coordinator.register_shard("D1", "addItem")
    for replica in owners[1:]:
        replication.replicate_document("D1", replica)
        replication.replicate_service("addItem", replica)
    return network, replication, coordinator, peers


class TestShardRing:
    def test_assignment_is_pinned(self):
        # Placement is a pure function of (seed, members, key): these
        # exact values must never drift, or every sharded replay breaks.
        ring = ShardRing(seed=42, members=["AP1", "AP2", "AP3"], replicas=1)
        assert ring.lookup("D1") == ["AP3", "AP1"]
        assert ring.lookup("D2") == ["AP2", "AP3"]
        assert ring.primary("D1") == "AP3"

    def test_insertion_order_is_irrelevant(self):
        keys = [f"K{i}" for i in range(32)]
        a = ShardRing(seed=7, members=["M1", "M2", "M3"], replicas=1)
        b = ShardRing(seed=7, members=["M3", "M1", "M2"], replicas=1)
        assert a.assignment(keys) == b.assignment(keys)

    def test_assignment_is_stable_across_processes(self):
        # The whole point of crc32 hashing: PYTHONHASHSEED cannot leak
        # into placement.  Compute the same assignment under two
        # different hash seeds in fresh interpreters.
        program = (
            "import sys; sys.path.insert(0, 'src');"
            "from repro.p2p.sharding import ShardRing;"
            "ring = ShardRing(seed=42, members=['AP1','AP2','AP3'], replicas=1);"
            "print(ring.assignment(['D%d' % i for i in range(16)]))"
        )
        outputs = set()
        for hash_seed in ("0", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                cwd=".",
                env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"},
            )
            assert result.returncode == 0, result.stderr
            outputs.add(result.stdout)
        assert len(outputs) == 1
        local = ShardRing(seed=42, members=["AP1", "AP2", "AP3"], replicas=1)
        assert str(local.assignment([f"D{i}" for i in range(16)])) in {
            out.strip() for out in outputs
        }

    @settings(max_examples=50, deadline=None)
    @given(members=MEMBER_NAMES, keys=st.lists(st.text(min_size=1), max_size=20))
    def test_join_moves_keys_only_to_the_new_member(self, members, keys):
        # Minimal disruption, structurally: when a member joins, any key
        # whose primary changed is now owned by exactly that member.
        ring = ShardRing(seed=3, members=members)
        before = {key: ring.primary(key) for key in keys}
        ring.add_member("NEWPEER")
        for key in keys:
            after = ring.primary(key)
            assert after == before[key] or after == "NEWPEER"

    @settings(max_examples=50, deadline=None)
    @given(members=MEMBER_NAMES, keys=st.lists(st.text(min_size=1), max_size=20))
    def test_leave_touches_only_keys_the_member_owned(self, members, keys):
        ring = ShardRing(seed=3, members=members, replicas=1)
        before = {key: ring.lookup(key) for key in keys}
        victim = sorted(members)[0]
        ring.remove_member(victim)
        for key in keys:
            if victim not in before[key]:
                assert ring.lookup(key) == before[key]

    def test_join_disruption_is_bounded(self):
        # Quantitative minimal-disruption gate: a 5th member takes over
        # at most ceil(K/N) + slack of 128 keys (measured: 11, expected
        # ~K/N = 25.6; slack covers vnode placement variance).
        keys = [f"K{i:03d}" for i in range(128)]
        ring = ShardRing(seed=9, members=["M1", "M2", "M3", "M4"])
        before = {key: ring.primary(key) for key in keys}
        ring.add_member("M5")
        moved = [key for key in keys if ring.primary(key) != before[key]]
        bound = math.ceil(128 / 5)
        assert 0 < len(moved) <= 2 * bound
        assert all(ring.primary(key) == "M5" for key in moved)

    def test_moved_keys_reports_owner_changes(self):
        before = {"A": ["M1"], "B": ["M2"], "C": ["M1", "M2"]}
        after = {"A": ["M1"], "B": ["M3"], "C": ["M2", "M1"], "D": ["M3"]}
        assert moved_keys(before, after) == ["B", "C", "D"]


class TestPlacementDirectory:
    def test_non_sharded_methods_route_to_none(self):
        network = SimNetwork()
        assert isinstance(network.directory, PlacementDirectory)
        assert network.replication.directory is network.directory
        assert network.directory.route_service("anything") is None

    def test_routes_to_primary_with_liveness_fallback(self):
        network, replication, coordinator, peers = make_sharded_cluster()
        directory = replication.directory
        assert directory.route_service("addItem") == "AP3"
        network.disconnect("AP3")
        assert directory.route_service("addItem") == "AP1"

    def test_flip_primary_reorders_document_and_service(self):
        network, replication, coordinator, peers = make_sharded_cluster()
        directory = replication.directory
        directory.flip_primary("D1", "AP1")
        assert directory.document_holders("D1") == ["AP1", "AP3"]
        assert directory.service_holders("addItem") == ["AP1", "AP3"]
        assert directory.route_service("addItem") == "AP1"


class TestLiveMigration:
    def test_join_migrates_the_shard_and_reroutes(self):
        network, replication, coordinator, peers = make_sharded_cluster()
        peers["N15"] = AXMLPeer("N15", network)
        coordinator.add_peer("N15")  # N15 becomes D1's ring primary
        network.events.run_all()
        assert network.metrics.get("migrations") == 1
        assert network.metrics.get("shard_joins") == 1
        assert network.metrics.get("ring_moves") >= 1
        directory = replication.directory
        assert directory.primary("D1") == "N15"
        assert "items" in peers["N15"].get_axml_document("D1").to_xml()
        # Invocations addressed at the old primary now land on N15.
        txn = peers["C1"].begin_transaction()
        peers["C1"].invoke(txn.txn_id, "AP3", "addItem", {"v": "99"})
        peers["C1"].commit(txn.txn_id)
        assert "99" in peers["N15"].get_axml_document("D1").to_xml()

    def test_migration_defers_in_flight_transactions(self):
        network, replication, coordinator, peers = make_sharded_cluster(
            max_defers=100
        )
        peers["N15"] = AXMLPeer("N15", network)
        txn = peers["C1"].begin_transaction()
        peers["C1"].invoke(txn.txn_id, "AP3", "addItem", {"v": "7"})
        coordinator.add_peer("N15")
        # The copy barrier must wait for the open transaction: commit it
        # a little later on the simulation clock.
        network.events.schedule(0.4, lambda: peers["C1"].commit(txn.txn_id))
        network.events.run_all()
        assert network.metrics.get("migration_deferred_txns") >= 1
        assert network.metrics.get("migrations") == 1
        assert replication.directory.primary("D1") == "N15"
        assert "7" in peers["N15"].get_axml_document("D1").to_xml()

    def test_cutover_leaves_chain_views_alone(self):
        # The old primary stays a holder, so a settled transaction's
        # chain keeps naming it: a migration rewrites no §3.3 chain.
        network, replication, coordinator, peers = make_sharded_cluster()
        txn = peers["C1"].begin_transaction()
        peers["C1"].invoke(txn.txn_id, "AP3", "addItem", {"v": "1"})
        peers["C1"].commit(txn.txn_id)
        peers["N15"] = AXMLPeer("N15", network)
        coordinator.add_peer("N15")
        network.events.run_all()
        assert network.metrics.get("migrations") == 1
        assert network.metrics.get("chains_rewritten") == 0
        assert peers["C1"].chain_views()[txn.txn_id].contains("AP3")

    def test_parked_migration_settles_to_ring_assignment(self):
        # A transaction that never finishes exhausts the defer budget;
        # the migration parks, and settle() completes the move.
        network, replication, coordinator, peers = make_sharded_cluster(
            max_defers=2
        )
        peers["N15"] = AXMLPeer("N15", network)
        txn = peers["C1"].begin_transaction()
        peers["C1"].invoke(txn.txn_id, "AP3", "addItem", {"v": "5"})
        coordinator.add_peer("N15")
        network.events.run_all()
        assert network.metrics.get("migration_aborts") == 1
        peers["C1"].commit(txn.txn_id)
        coordinator.settle()
        directory = replication.directory
        assert directory.document_holders("D1") == coordinator.ring.lookup("D1")
        assert directory.primary("D1") == "N15"
        assert network.metrics.get("migrations") == 1

    def test_retire_refuses_to_shrink_below_replication_factor(self):
        network, replication, coordinator, peers = make_sharded_cluster()
        coordinator.retire_peer("AP1")
        assert coordinator.ring.members == ["AP2", "AP3"]
        coordinator.retire_peer("AP2")  # would leave 1 < 1 + replicas
        assert coordinator.ring.members == ["AP2", "AP3"]


class TestShardedChaos:
    CONFIG = ChaosConfig(
        seed=7,
        txns=8,
        providers=3,
        fault_rate=0.2,
        crash_rate=0.3,
        replicas=1,
        sharding=True,
        shard_spares=1,
        durability=True,
    )

    def test_sharded_run_is_clean_and_deterministic(self):
        result = run_chaos(self.CONFIG)
        assert result.violations == []
        assert summary_text(result) == summary_text(run_chaos(self.CONFIG))

    def test_sharded_seeds_hold_the_invariant(self):
        for seed in (1, 2, 3):
            config = ChaosConfig(
                seed=seed,
                txns=6,
                providers=3,
                fault_rate=0.25,
                crash_rate=0.3,
                replicas=1,
                sharding=True,
                shard_spares=1,
                durability=True,
            )
            result = run_chaos(config)
            assert result.violations == [], (seed, result.violations)

    def test_sharding_section_in_summary(self):
        result = run_chaos(self.CONFIG)
        sharding = result.summary["metrics"]["sharding"]
        assert sharding["shard_joins"] == 1
        assert "migrations" in sharding


class TestShardOracle:
    CONFIG = ChaosConfig(
        seed=5, txns=4, providers=3, fault_rate=0.0, replicas=1, sharding=True
    )

    def test_clean_run_has_no_shard_violations(self):
        result = run_chaos(self.CONFIG)
        assert result.violations == []

    def test_lost_shard_is_flagged(self):
        result = run_chaos(self.CONFIG)
        for peer in result.cluster.peers.values():
            peer.documents.pop("D1", None)
        kinds = {v.kind for v in result.oracle().check(result.cluster.peers)}
        assert "shard_lost" in kinds

    def test_duplicated_shard_is_flagged(self):
        result = run_chaos(self.CONFIG)
        directory = result.cluster.replication.directory
        holders = directory.document_holders("D1")
        stray = next(
            pid for pid in sorted(result.cluster.peers) if pid not in holders
        )
        source = result.cluster.peer(holders[0]).get_axml_document("D1")
        copy = source.document.clone_tree(preserve_ids=True, name="D1")
        result.cluster.peer(stray).host_document(AXMLDocument(copy, name="D1"))
        kinds = {v.kind for v in result.oracle().check(result.cluster.peers)}
        assert "shard_duplicated" in kinds

    def test_stale_directory_is_flagged(self):
        result = run_chaos(self.CONFIG)
        directory = result.cluster.replication.directory
        directory.document_map["D1"].reverse()
        kinds = {v.kind for v in result.oracle().check(result.cluster.peers)}
        assert "directory_stale" in kinds


class TestFragmentSerialScoping:
    LIB = "<Lib><books><book><title>Sagas</title></book></books><cds/></Lib>"

    def test_fragment_serial_is_run_scoped(self):
        # Two independent networks each start their serials at 1 — the
        # old module-global itertools.count leaked state across runs in
        # one process (breaking serial vs. parallel sweep identity).
        for _ in range(2):
            network = SimNetwork()
            replication = network.replication
            ap1 = AXMLPeer("AP1", network)
            ap2 = AXMLPeer("AP2", network)
            ap1.host_document(AXMLDocument.from_xml(self.LIB, name="Lib"))
            replication.register_primary("Lib", "AP1")
            placement = distribute_fragment(ap1, "Lib", "//books", ap2)
            assert placement.fragment_document == "Lib_frag1"
