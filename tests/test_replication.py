"""WAL shipping, deterministic failover, and resync (docs/REPLICATION.md).

These pin the replication subsystem's protocol-level behaviour: logged
entries ship on commit (unencoded, their action parsed at most once) and
carry acked high-water marks, failover picks the most-caught-up replica
deterministically, a lagging replica catches up by replaying its inbox,
sibling-share entries are deferred — never dropped — while the
receiver's own share is in doubt, and a query's materialization reaches
replicas through settlement's resync.
"""

import contextlib
import copy
import sys

import pytest

from repro.axml.document import AXMLDocument
from repro.chaos import ChaosConfig, run_chaos
from repro.chaos.oracle import AtomicityOracle
from repro.chaos.shrink import summary_text
from repro.p2p import replication as replication_module
from repro.p2p.chain import PeerChain
from repro.p2p.messages import WalShipMessage
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.query.parser import parse_action
from repro.query.update import apply_action
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import FunctionService, QueryService, UpdateService
from repro.txn.modes import DurabilityPolicy
from repro.txn.recovery import DISCONNECT_FAULT, FaultPolicy
from repro.txn.transaction import Transaction, TransactionState
from repro.txn.wal import LogEntry, OperationLog, entry_bytes, entry_from_xml
from repro.xmlstore.serializer import canonical_digest

SHOP2 = "<Shop2><item id='1'><price>10</price><stock>3</stock></item></Shop2>"

#: Shop2 whose item embeds a call to AP4's getStock (answers 7).
SHOP2_WITH_CALL = (
    "<Shop2><item id='1'><price>10</price>"
    '<axml:sc serviceURL="axml://AP4" methodName="getStock" mode="replace" resultName="stock"/>'
    "</item></Shop2>"
)

SET_PRICE = (
    '<action type="replace"><data><price>$price</price></data>'
    "<location>Select i/price from i in Shop2//item;</location></action>"
)

INSERT_FLAG = (
    '<action type="insert"><data><shipped/></data>'
    "<location>Select i from i in Shop2//item;</location></action>"
)


def make_cluster(replicas=("AP3",), ship_batch=1, durability=None, shop=SHOP2):
    """AP1 (origin) + AP2 (primary for Shop2/setPrice) + replica peers."""
    network = SimNetwork()
    replication = network.replication
    replication.ship_batch = ship_batch
    peers = {
        "AP1": AXMLPeer("AP1", network),
        "AP2": AXMLPeer("AP2", network, durability=durability),
    }
    peers["AP2"].host_document(AXMLDocument.from_xml(shop, name="Shop2"))
    peers["AP2"].host_service(
        UpdateService(
            ServiceDescriptor("setPrice", params=("price",), target_document="Shop2"),
            SET_PRICE,
        )
    )
    replication.register_primary("Shop2", "AP2")
    replication.register_service("setPrice", "AP2")
    for peer_id in replicas:
        peers[peer_id] = AXMLPeer(peer_id, network)
        replication.replicate_document("Shop2", peer_id)
        replication.replicate_service("setPrice", peer_id)
    return network, replication, peers


def retry_policy():
    return [FaultPolicy(fault_names={DISCONNECT_FAULT}, retry_times=1)]


@contextlib.contextmanager
def entered(*functions):
    """Count calls of *functions* (by code object, so however a caller
    bound them) inside the block: name → count."""
    codes = {function.__code__: function.__name__ for function in functions}
    calls = dict.fromkeys(codes.values(), 0)

    def count(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    sys.setprofile(count)
    try:
        yield calls
    finally:
        sys.setprofile(None)


class TestWalShipping:
    def test_commit_ships_committed_entries_to_replicas(self):
        network, replication, peers = make_cluster()
        txn = peers["AP1"].begin_transaction()
        peers["AP1"].invoke(txn.txn_id, "AP2", "setPrice", {"price": "88"})
        assert "88" not in peers["AP3"].get_axml_document("Shop2").to_xml()
        peers["AP1"].commit(txn.txn_id)
        assert "88" in peers["AP3"].get_axml_document("Shop2").to_xml()
        assert network.metrics.get("ship_frames") >= 1
        assert network.metrics.get("ship_bytes") > 0

    def test_ack_advances_high_water_mark(self):
        network, replication, peers = make_cluster()
        txn = peers["AP1"].begin_transaction()
        peers["AP1"].invoke(txn.txn_id, "AP2", "setPrice", {"price": "88"})
        last_seq = peers["AP2"].manager.log.entries_for(txn.txn_id)[-1].seq
        peers["AP1"].commit(txn.txn_id)
        channel = replication._channel("AP2", "AP3")
        assert channel.acked_seq == last_seq
        assert channel.unacked == []

    def test_ship_batch_buffers_until_full(self):
        network, replication, peers = make_cluster(ship_batch=2)
        txn = peers["AP1"].begin_transaction()
        peers["AP1"].invoke(txn.txn_id, "AP2", "setPrice", {"price": "21"})
        peers["AP1"].commit(txn.txn_id)
        # One committed entry < batch size: buffered, not on the wire.
        assert "21" not in peers["AP3"].get_axml_document("Shop2").to_xml()
        assert replication._channel("AP2", "AP3").pending
        txn2 = peers["AP1"].begin_transaction()
        peers["AP1"].invoke(txn2.txn_id, "AP2", "setPrice", {"price": "22"})
        peers["AP1"].commit(txn2.txn_id)
        # Second entry fills the batch: both frames ship together.
        assert "22" in peers["AP3"].get_axml_document("Shop2").to_xml()
        assert not replication._channel("AP2", "AP3").pending

    def test_settle_flushes_partial_batches(self):
        network, replication, peers = make_cluster(ship_batch=4)
        txn = peers["AP1"].begin_transaction()
        peers["AP1"].invoke(txn.txn_id, "AP2", "setPrice", {"price": "33"})
        peers["AP1"].commit(txn.txn_id)
        assert "33" not in peers["AP3"].get_axml_document("Shop2").to_xml()
        replication.settle()
        assert "33" in peers["AP3"].get_axml_document("Shop2").to_xml()

    def test_settle_drains_a_delayed_ship(self):
        # settle() drains the network's own event queue: a ship a
        # message hook delayed is delivered and applied, no caller hands
        # it a drain.
        network, replication, peers = make_cluster()
        network.set_message_hook(
            lambda source, target, message:
                5.0 if isinstance(message, WalShipMessage) else None
        )
        commit_price(peers, "55")
        assert network.metrics.get("messages_chaos_delayed") == 1
        assert "55" not in peers["AP3"].get_axml_document("Shop2").to_xml()
        replication.settle()
        assert "55" in peers["AP3"].get_axml_document("Shop2").to_xml()
        assert replication._channel("AP2", "AP3").unacked == []
        assert network.events.run_all() == 0  # nothing left in flight

    def test_failed_ship_requeues_for_retry(self):
        network, replication, peers = make_cluster()
        network.disconnect("AP3")
        txn = peers["AP1"].begin_transaction()
        peers["AP1"].invoke(txn.txn_id, "AP2", "setPrice", {"price": "44"})
        peers["AP1"].commit(txn.txn_id)
        # Receiver dead: the frame must be re-queued, never dropped.
        assert network.metrics.get("ship_failures") >= 1
        assert replication._channel("AP2", "AP3").pending
        peers["AP3"].rejoin()
        replication.settle()
        assert "44" in peers["AP3"].get_axml_document("Shop2").to_xml()


def commit_price(peers, price):
    txn = peers["AP1"].begin_transaction()
    peers["AP1"].invoke(txn.txn_id, "AP2", "setPrice", {"price": price})
    peers["AP1"].commit(txn.txn_id)


class TestReofferToADeadReplica:
    """While a replica is down every commit of its source re-offers the
    whole backlog.  The offers and their counters stay what they were,
    but an offer's bookkeeping costs only the entries that joined the
    channel since the last one."""

    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_counters_match_the_offers_and_sizes_are_taken_once(self, monkeypatch, k):
        network, replication, peers = make_cluster()
        offers = []  # (WalShipMessage, delivered)
        notify = network.notify

        def recording_notify(source, target, message):
            delivered = notify(source, target, message)
            if isinstance(message, WalShipMessage):
                offers.append((message, delivered))
            return delivered

        sized = []

        def counting_entry_bytes(entry):
            sized.append(entry.seq)
            return entry_bytes(entry)

        monkeypatch.setattr(network, "notify", recording_notify)
        monkeypatch.setattr(replication_module, "entry_bytes", counting_entry_bytes)
        commit_price(peers, "10")
        network.disconnect("AP3")
        for i in range(k):
            commit_price(peers, str(20 + i))
        network.reconnect("AP3")
        replication.settle()

        # One live offer, k failed re-offers of the growing backlog, and
        # settlement's flush: every offer is still made, none is parked.
        assert [len(m.entries) for m, _ in offers] == [1, *range(1, k + 1), k]
        metrics = network.metrics
        assert metrics.get("ship_frames") == sum(len(m.entries) for m, _ in offers)
        assert metrics.get("ship_bytes") == sum(
            entry_bytes(e) for m, _ in offers for e in m.entries
        )
        assert metrics.get("ship_failures") == sum(1 for _, ok in offers if not ok) == k
        # Every delivered offer is acked inside its notify, so each offer
        # finds the window empty and samples its own length.
        assert metrics.histogram("ship_lag").values == [
            float(len(m.entries)) for m, _ in offers
        ]
        channel = replication._channel("AP2", "AP3")
        assert channel.pending == [] and channel.pending_bytes == 0
        assert channel.unacked == []
        assert channel.acked_seq == offers[-1][0].last_seq
        # Converged by the shipped entries alone, not by a resync.
        assert metrics.get("replica_resyncs") == 0
        assert metrics.get("replica_applied_entries") == k + 1
        primary, replica = (
            canonical_digest(peers[p].get_axml_document("Shop2").document)
            for p in ("AP2", "AP3")
        )
        assert replica == primary
        # Each entry is sized once, when it joins the channel.
        assert sized == sorted({e.seq for m, _ in offers for e in m.entries})
        assert len(sized) == k + 1

    def test_failed_offer_leaves_earlier_deliveries_in_the_window(self):
        # A recovered in-doubt share re-ships entries whose seqs are still
        # in flight from an earlier, delivered but unacked offer.  Failing
        # the re-offer takes back only its own seqs.
        network, replication, peers = make_cluster()
        network.disconnect("AP3")
        channel = replication._channel("AP2", "AP3")
        channel.unacked = [3, 4]
        batch = [LogEntry(seq, "T9", "update", "Shop2", SET_PRICE) for seq in (3, 5)]
        channel.pending, channel.pending_bytes = list(batch), 99
        replication._ship(channel)
        assert network.metrics.histogram("ship_lag").values == [4.0]
        assert channel.unacked == [3, 4]
        assert channel.pending == batch and channel.pending_bytes == 99


class TestShipCarriesEntries:
    """A ship hands replicas the entries the primary logged, parsed
    action included: nothing is encoded, decoded or re-parsed per
    replica."""

    def test_commit_neither_decodes_nor_parses_on_the_ship_path(self):
        network, replication, peers = make_cluster(replicas=("AP3", "AP4"))
        txn = peers["AP1"].begin_transaction()
        peers["AP1"].invoke(txn.txn_id, "AP2", "setPrice", {"price": "88"})
        with entered(parse_action, entry_from_xml) as calls:
            peers["AP1"].commit(txn.txn_id)
        assert calls == {"parse_action": 0, "entry_from_xml": 0}
        for replica in ("AP3", "AP4"):
            assert "88" in peers[replica].get_axml_document("Shop2").to_xml()

    def test_entry_recovered_from_disk_is_parsed_once_for_two_replicas(self):
        network, replication, peers = make_cluster(
            replicas=("AP3", "AP4"), durability=DurabilityPolicy(directory="AP2"),
        )
        ap2 = peers["AP2"]
        txn = peers["AP1"].begin_transaction()
        peers["AP1"].invoke(txn.txn_id, "AP2", "setPrice", {"price": "88"})
        ap2.crash()
        ap2.rejoin()
        with entered(parse_action, entry_from_xml) as calls:
            assert ap2.resolve_in_doubt(txn.txn_id, committed=True) == "committed"
        assert calls == {"parse_action": 1, "entry_from_xml": 0}
        for replica in ("AP3", "AP4"):
            assert "88" in peers[replica].get_axml_document("Shop2").to_xml()

    def test_replicas_leave_the_shipped_entry_as_logged(self):
        network, replication, peers = make_cluster(replicas=("AP3", "AP4"))
        txn = peers["AP1"].begin_transaction()
        peers["AP1"].invoke(txn.txn_id, "AP2", "setPrice", {"price": "88"})
        (entry,) = peers["AP2"].manager.log.entries_for(txn.txn_id)
        before = copy.deepcopy(entry)
        peers["AP1"].commit(txn.txn_id)
        assert network.metrics.get("replica_applied_entries") == 2
        assert entry == before
        assert entry.action == before.action

    @pytest.mark.parametrize("shape", [
        dict(replicas=2),
        dict(replicas=2, handlers=True, ship_batch=2),
        dict(replicas=2, sharding=True, shard_spares=2, crash_rate=0.02),
    ], ids=["replicated", "handlers-batched", "sharded"])
    def test_seeded_actions_are_what_parsing_the_logged_text_gives(self, monkeypatch, shape):
        seeded = []
        append = OperationLog.append

        def recording_append(log, *args, **kwargs):
            entry = append(log, *args, **kwargs)
            if entry._action is not None:
                seeded.append(entry)
            return entry

        monkeypatch.setattr(OperationLog, "append", recording_append)
        for seed in range(3):
            run_chaos(ChaosConfig(seed=seed, txns=40, durability=True, **shape))
        assert seeded
        assert all(parse_action(e.action_xml) == e.action for e in seeded)


def node_ids(peer, document="Shop2"):
    return [node.node_id for node in peer.get_axml_document(document).document.iter()]


class TestReplicasApplyRecordsById:
    """A replica redoes a shipped entry from its change records under the
    primary's node ids: no Select, no ``apply_action``."""

    def test_replica_holds_the_primary_ids_and_runs_no_action(self):
        network, replication, peers = make_cluster(replicas=("AP3", "AP4"))
        for price in ("88", "89"):
            txn = peers["AP1"].begin_transaction()
            peers["AP1"].invoke(txn.txn_id, "AP2", "setPrice", {"price": price})
            with entered(apply_action) as calls:
                peers["AP1"].commit(txn.txn_id)
            assert calls == {"apply_action": 0}
        assert network.metrics.get("replica_applied_entries") == 4
        for replica in ("AP3", "AP4"):
            assert node_ids(peers[replica]) == node_ids(peers["AP2"])
            assert canonical_digest(peers[replica].get_axml_document("Shop2").document) == (
                canonical_digest(peers["AP2"].get_axml_document("Shop2").document))

    def test_an_unresolved_id_marks_the_pair_stale_and_settles(self):
        network, replication, peers = make_cluster()
        # AP3's copy is re-hosted from text: same content, fresh ids.
        text = peers["AP2"].get_axml_document("Shop2").to_xml()
        peers["AP3"].host_document(AXMLDocument.from_xml(text, name="Shop2"))
        txn = peers["AP1"].begin_transaction()
        peers["AP1"].invoke(txn.txn_id, "AP2", "setPrice", {"price": "88"})
        peers["AP1"].commit(txn.txn_id)
        assert network.metrics.get("ship_unresolved_entries") == 1
        assert network.metrics.get("replica_applied_entries") == 0
        assert ("Shop2", "AP3") in replication._stale
        assert "88" not in peers["AP3"].get_axml_document("Shop2").to_xml()
        replication.settle()
        assert node_ids(peers["AP3"]) == node_ids(peers["AP2"])
        oracle = AtomicityOracle(outcomes={}, expected=[], txn_ids={})
        assert oracle._check_replicas(peers) == []

    def test_only_documents_with_a_second_holder_ship(self):
        for replicas, shipped in (((), 0), (("AP3",), 1)):
            network, replication, peers = make_cluster(replicas=replicas)
            txn = peers["AP1"].begin_transaction()
            peers["AP1"].invoke(txn.txn_id, "AP2", "setPrice", {"price": "88"})
            with entered(replication_module.ReplicationManager.on_committed) as calls:
                peers["AP1"].commit(txn.txn_id)
            assert calls == {"on_committed": shipped}
            assert network.metrics.get("ship_frames") == shipped


class TestDeterministicFailoverSelection:
    def test_most_caught_up_replica_wins(self):
        network, replication, peers = make_cluster(replicas=("AP3", "AP4"))
        # AP4 is strictly more caught up with AP2's WAL than AP3.
        replication._channel("AP2", "AP3").applied_seq = 1
        replication._channel("AP2", "AP4").applied_seq = 5
        network.disconnect("AP2")
        assert replication.select_failover("AP2", "setPrice") == "AP4"
        assert network.metrics.get("stale_reads_prevented") == 1

    def test_tie_breaks_by_peer_id_not_registration_order(self):
        network, replication, peers = make_cluster(replicas=("AP4", "AP3"))
        network.disconnect("AP2")
        # Equal catch-up: lexicographically smallest peer id wins even
        # though AP4 was registered first.
        assert replication.select_failover("AP2", "setPrice") == "AP3"

    def test_selection_skips_dead_replicas(self):
        network, replication, peers = make_cluster(replicas=("AP3", "AP4"))
        replication._channel("AP2", "AP3").applied_seq = 9
        network.disconnect("AP2")
        network.disconnect("AP3")
        assert replication.select_failover("AP2", "setPrice") == "AP4"

    def test_promotion_moves_primary_role(self):
        network, replication, peers = make_cluster()
        network.disconnect("AP2")
        replication.select_failover("AP2", "setPrice")
        assert replication.directory.primary("Shop2") == "AP3"

    def test_split_primary_after_failover_is_pinned_not_endorsed(self):
        """"Who is primary" is stored twice: promotion reorders the
        document's holder list but not its method's, and the scheduler's
        reroute (like ``route_service``) reads the method's.  This pins
        today's routing, not a design (ROADMAP 1(b), 2)."""
        from repro.sim.scheduler import InvokeOp, TransactionScheduler

        network, replication, peers = make_cluster(replicas=("AP4", "AP3"))
        network.disconnect("AP2")
        assert replication.select_failover("AP2", "setPrice") == "AP3"
        directory = replication.directory
        assert directory.primary("Shop2") == "AP3"
        assert directory.service_holders("setPrice") == ["AP2", "AP4", "AP3"]
        route = TransactionScheduler(network)._route_invoke
        assert route(InvokeOp("AP2", "setPrice")) == "AP4"  # not the promoted AP3


class TestFailover:
    def test_invoke_fails_over_to_replica(self):
        network, replication, peers = make_cluster()
        peers["AP1"].set_fault_policy("setPrice", retry_policy())
        network.disconnect("AP2")
        txn = peers["AP1"].begin_transaction()
        fragments = peers["AP1"].invoke(
            txn.txn_id, "AP2", "setPrice", {"price": "66"}
        )
        assert fragments
        assert "66" in peers["AP3"].get_axml_document("Shop2").to_xml()
        assert network.metrics.get("failovers") == 1
        assert network.metrics.get("chains_rewritten") == 1
        peers["AP1"].commit(txn.txn_id)
        state = peers["AP3"].manager.states()[txn.txn_id]
        assert state is TransactionState.COMMITTED

    def test_double_failover(self):
        network, replication, peers = make_cluster(replicas=("AP3", "AP4"))
        peers["AP1"].set_fault_policy("setPrice", retry_policy())
        network.disconnect("AP2")
        txn = peers["AP1"].begin_transaction()
        peers["AP1"].invoke(txn.txn_id, "AP2", "setPrice", {"price": "71"})
        peers["AP1"].commit(txn.txn_id)
        assert "71" in peers["AP3"].get_axml_document("Shop2").to_xml()
        # The first failover target dies too: the next transaction must
        # fail over again, to the remaining replica.
        network.disconnect("AP3")
        txn2 = peers["AP1"].begin_transaction()
        peers["AP1"].invoke(txn2.txn_id, "AP2", "setPrice", {"price": "72"})
        peers["AP1"].commit(txn2.txn_id)
        assert "72" in peers["AP4"].get_axml_document("Shop2").to_xml()
        assert network.metrics.get("failovers") == 2
        assert replication.directory.primary("Shop2") == "AP4"

    def test_lagging_replica_mid_batch_catches_up_on_unlag(self):
        network, replication, peers = make_cluster()
        replication.lag_replica("AP3")
        txn = peers["AP1"].begin_transaction()
        peers["AP1"].invoke(txn.txn_id, "AP2", "setPrice", {"price": "51"})
        last_seq = peers["AP2"].manager.log.entries_for(txn.txn_id)[-1].seq
        peers["AP1"].commit(txn.txn_id)
        channel = replication._channel("AP2", "AP3")
        # Delivered but unapplied: the frame waits in the inbox, unacked.
        assert channel.inbox
        assert channel.unacked
        assert "51" not in peers["AP3"].get_axml_document("Shop2").to_xml()
        replication.unlag_replica("AP3")
        assert "51" in peers["AP3"].get_axml_document("Shop2").to_xml()
        assert channel.acked_seq == last_seq
        assert channel.unacked == []

    def test_primary_crash_between_flush_and_ack(self):
        network, replication, peers = make_cluster()
        replication.lag_replica("AP3")
        txn = peers["AP1"].begin_transaction()
        peers["AP1"].invoke(txn.txn_id, "AP2", "setPrice", {"price": "61"})
        peers["AP1"].commit(txn.txn_id)
        shipped_lag = len(replication._channel("AP2", "AP3").unacked)
        assert shipped_lag >= 1
        # The primary dies while the shipped frames are still unacked:
        # failover must replay exactly the shipped tail on the target.
        network.disconnect("AP2")
        peers["AP1"].set_fault_policy("setPrice", retry_policy())
        txn2 = peers["AP1"].begin_transaction()
        peers["AP1"].invoke(txn2.txn_id, "AP2", "setPrice", {"price": "62"})
        peers["AP1"].commit(txn2.txn_id)
        replayed = network.metrics.get("failover_replay_entries")
        assert 1 <= replayed <= shipped_lag
        xml = peers["AP3"].get_axml_document("Shop2").to_xml()
        assert "62" in xml and "61" not in xml  # 61 replayed, then replaced


class TestChainRewrite:
    def test_interior_node_substitution(self):
        chain = PeerChain("AP1")
        chain.add_invocation("AP1", "AP2", False)
        chain.add_invocation("AP2", "AP3", False)
        assert chain.substitute("AP2", "APX", False)
        assert not chain.contains("AP2")
        assert chain.children_of("AP1") == ["APX"]
        # The interior node's subtree re-parents onto the substitute.
        assert chain.children_of("APX") == ["AP3"]


class TestDeferredSiblingShareFrames:
    def test_frame_for_in_doubt_sibling_share_is_deferred_not_dropped(self):
        network, replication, peers = make_cluster()
        ap3 = peers["AP3"]
        # AP3 holds its own live (in-doubt) share of T1 touching Shop2.
        ap3.manager.begin(Transaction("T1", "AP1"), parent_peer="AP1")
        ap3.manager.record_service_changes("T1", "Shop2", SET_PRICE, [], 0.0, None)
        # A sibling operation of the same transaction ran on AP2 and
        # ships in with its change records.
        done = apply_action(peers["AP2"].get_axml_document("Shop2").document,
                            parse_action(INSERT_FLAG))
        entry = LogEntry(
            seq=5, txn_id="T1", kind="update",
            document_name="Shop2", action_xml=INSERT_FLAG, records=done.records,
        )
        channel = replication._channel("AP2", "AP3")
        channel.inbox.append(entry)
        replication._apply_inbox(channel)
        # Not applied (the local decision is pending) — but not lost.
        assert "<shipped" not in ap3.get_axml_document("Shop2").to_xml()
        assert channel.inbox == [entry]
        assert network.metrics.get("ship_deferred_entries") == 1
        ap3.manager.commit_local("T1")
        replication._apply_inbox(channel)
        assert "<shipped" in ap3.get_axml_document("Shop2").to_xml()
        assert channel.inbox == []
        assert channel.applied_seq == 5


STOCK_QUERY = "Select i/stock from i in Shop2//item;"


def materializing_cluster():
    """make_cluster over SHOP2_WITH_CALL, a query service ``q`` on the
    primary whose Select needs the getStock result (so it materializes
    the call), and AP4 answering that call."""
    network, replication, peers = make_cluster(shop=SHOP2_WITH_CALL)
    peers["AP2"].host_service(QueryService(
        ServiceDescriptor("q", target_document="Shop2"), STOCK_QUERY,
    ))
    peers["AP4"] = AXMLPeer("AP4", network)
    peers["AP4"].host_service(FunctionService(
        ServiceDescriptor("getStock"), lambda params: ["<stock>7</stock>"],
    ))
    return network, replication, peers


class TestReplicatedMaterialization:
    """A query is never re-run on a replica (it would re-invoke the
    services it materialized); the document it changed is resynced at
    settlement instead."""

    def assert_converged(self, replication, peers):
        replication.settle()
        primary = peers["AP2"].get_axml_document("Shop2").to_xml()
        assert "<stock>7</stock>" in primary
        assert peers["AP3"].get_axml_document("Shop2").to_xml() == primary

    def test_query_service_materialization_reaches_the_replica(self):
        network, replication, peers = materializing_cluster()
        txn = peers["AP1"].begin_transaction()
        peers["AP1"].invoke(txn.txn_id, "AP2", "q", {})
        peers["AP1"].commit(txn.txn_id)
        assert network.metrics.get("ship_stale_queries") == 1
        self.assert_converged(replication, peers)

    def test_submitted_query_materialization_reaches_the_replica(self):
        network, replication, peers = materializing_cluster()
        ap2 = peers["AP2"]
        txn = ap2.begin_transaction()
        query = f'<action type="query"><location>{STOCK_QUERY}</location></action>'
        outcome = ap2.submit(txn.txn_id, query)
        assert outcome.log_entry.kind == "query" and outcome.log_entry.records
        ap2.commit(txn.txn_id)
        self.assert_converged(replication, peers)
        assert network.metrics.get("replica_resyncs") == 1


class TestResync:
    def test_resync_source_skips_stale_holders(self):
        network, replication, peers = make_cluster(replicas=("AP3", "AP4"))
        # The primary itself is stale (promoted, then crash-restarted):
        # the copy source must be the first alive NON-stale holder.
        replication._stale.add(("Shop2", "AP2"))
        assert replication._resync_source("Shop2", "AP4") == "AP3"
        assert replication._resync_source("Shop2", "AP2") == "AP3"

    def test_rejoined_holder_resynced_at_settle(self):
        network, replication, peers = make_cluster()
        peers["AP3"].crash()
        txn = peers["AP1"].begin_transaction()
        peers["AP1"].invoke(txn.txn_id, "AP2", "setPrice", {"price": "97"})
        peers["AP1"].commit(txn.txn_id)
        peers["AP3"].rejoin()
        replication.settle()
        assert "97" in peers["AP3"].get_axml_document("Shop2").to_xml()
        assert network.metrics.get("replica_resyncs") >= 1


class TestPartialBackwardRecovery:
    def test_frame_undo_keeps_earlier_share(self):
        network, replication, peers = make_cluster(replicas=())
        ap1, ap2 = peers["AP1"], peers["AP2"]
        txn = ap1.begin_transaction()
        for price in ("42", "77"):
            ap1.invoke(txn.txn_id, "AP2", "setPrice", {"price": price})
        context = ap2.manager.context(txn.txn_id)
        kept, undone = context.frames
        executed = ap2.manager.abort_frames(txn.txn_id, [undone])
        assert executed >= 1
        xml = ap2.get_axml_document("Shop2").to_xml()
        assert "42" in xml and "77" not in xml
        # The context stays ACTIVE, the survivor's entry was logged again
        # after the tombstone, and the surviving share still commits.
        assert context.state is TransactionState.ACTIVE and context.frames == [kept]
        log = ap2.manager.log.entries_for(txn.txn_id)
        assert [e.document_name for e in log] == ["Shop2"] and kept.entries == log
        ap1.commit(txn.txn_id)
        assert "42" in ap2.get_axml_document("Shop2").to_xml()


class TestOracleReplicaDiverged:
    def test_tampered_replica_is_detected(self):
        network, replication, peers = make_cluster()
        txn = peers["AP1"].begin_transaction()
        peers["AP1"].invoke(txn.txn_id, "AP2", "setPrice", {"price": "13"})
        peers["AP1"].commit(txn.txn_id)
        oracle = AtomicityOracle(outcomes={}, expected=[], txn_ids={})
        assert oracle._check_replicas(peers) == []
        # Tamper with the replica copy behind the protocol's back.
        apply_action(
            peers["AP3"].get_axml_document("Shop2").document,
            parse_action(INSERT_FLAG),
        )
        kinds = {v.kind for v in oracle._check_replicas(peers)}
        assert kinds == {"replica_diverged"}


class TestReplicatedChaosDeterminism:
    CONFIG = dict(
        seed=5, txns=6, fault_rate=0.2, crash_rate=0.3,
        replicas=2, durability=True,
    )

    def test_zero_violations_and_byte_identical_reruns(self):
        first = run_chaos(ChaosConfig(**self.CONFIG))
        second = run_chaos(ChaosConfig(**self.CONFIG))
        assert first.violations == []
        assert summary_text(first) == summary_text(second)

    def test_replication_metrics_surface(self):
        result = run_chaos(ChaosConfig(**self.CONFIG))
        counters = result.summary["metrics"]["counters"]
        assert counters.get("ship_frames", 0) > 0
        assert counters.get("ship_bytes", 0) > 0
