"""What is left of the serialization fast path (PR 9) now that the
document-level cache is gone: the structural clone, the memoized entry
codec and the digest-first replica check.

Each is pinned against the plain spelling it stands in for: ``serialize``
renders the tree as it is at the call, a structural clone equals the
serialize→parse round trip of a parser-built tree, a memoized frame
equals a fresh encode of the decoded entry.
"""

import hashlib

from repro.axml.document import AXMLDocument
from repro.baselines.snapshot_rollback import SnapshotRollback
from repro.chaos import ChaosConfig, run_chaos
from repro.chaos.oracle import AtomicityOracle
from repro.obs.prof import PROF, SUMMARY_LOCAL_COUNTERS, profiled
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.sim.metrics import MetricsCollector
from repro.txn.wal import LogEntry, entry_from_xml, entry_to_xml
from repro.xmlstore.nodes import Document
from repro.xmlstore.parser import parse_document
from repro.xmlstore.serializer import (
    canonical,
    canonical_digest,
    rebind_ids,
    serialize,
)


def build_doc(name="Shop"):
    return parse_document(
        "<Shop><item id='1'><price>10</price></item>"
        "<item id='2'><price>20</price></item></Shop>",
        name=name,
    )


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestSerializeCache:
    """No cache is left: a render after any kind of write, following an
    earlier render of the same document, shows the write."""

    def test_rendering_flags_are_cached_separately(self):
        doc = build_doc()
        plain = serialize(doc)
        with_ids = serialize(doc, include_ids=True)
        assert plain != with_ids
        assert serialize(doc) == plain
        assert serialize(doc, include_ids=True) == with_ids

    def test_attribute_write_invalidates(self):
        doc = build_doc()
        serialize(doc)
        doc.root.children[0].attributes["id"] = "9"
        assert "id=\"9\"" in serialize(doc)

    def test_attribute_delete_and_pop_invalidate(self):
        doc = build_doc()
        serialize(doc)
        del doc.root.children[0].attributes["id"]
        assert 'id="1"' not in serialize(doc)
        serialize(doc)
        doc.root.children[1].attributes.pop("id")
        assert 'id="2"' not in serialize(doc)

    def test_text_write_invalidates(self):
        doc = build_doc()
        serialize(doc)
        price = doc.root.children[0].children[0]
        price.children[0].value = "99"
        assert "<price>99</price>" in serialize(doc)

    def test_structural_mutation_invalidates(self):
        doc = build_doc()
        serialize(doc)
        doc.root.new_element("extra")
        assert "<extra/>" in serialize(doc)
        serialize(doc)
        doc.root.children[-1].detach()
        assert "<extra/>" not in serialize(doc)


class TestCanonicalDigest:
    def test_digest_is_sha256_of_canonical_text(self):
        doc = build_doc()
        assert canonical_digest(doc) == sha(canonical(doc))

    def test_equal_trees_equal_digests(self):
        assert canonical_digest(build_doc("a")) == canonical_digest(build_doc("b"))

    def test_subtree_digest_uncached(self):
        doc = build_doc()
        item = doc.root.children[0]
        assert canonical_digest(item) == sha(serialize(item))


class TestCloneTree:
    def test_preserving_clone_is_byte_identical_with_ids(self):
        doc = build_doc()
        copy = doc.clone_tree(preserve_ids=True, name="copy")
        assert serialize(copy, include_ids=True) == serialize(doc, include_ids=True)
        assert copy.name == "copy"

    def test_rebinding_clone_gets_fresh_ids(self):
        doc = build_doc()
        copy = doc.clone_tree(preserve_ids=False)
        assert canonical(copy) == canonical(doc)
        assert serialize(copy, include_ids=True) != serialize(doc, include_ids=True)

    def test_clone_is_independent(self):
        doc = build_doc()
        copy = doc.clone_tree(preserve_ids=True)
        copy.root.new_element("extra")
        assert "<extra/>" not in serialize(doc)
        assert "<extra/>" in serialize(copy)

    def test_parse_equivalent_matches_roundtrip_exactly(self):
        # A structural clone of a parse-normal tree (anything the parser
        # or the update layer built) equals the round trip.
        doc = build_doc()
        roundtrip = parse_document(serialize(doc, include_ids=True), name="copy")
        rebind_ids(roundtrip)
        clone = doc.clone_tree(preserve_ids=True, name="copy")
        assert serialize(clone, include_ids=True) == serialize(
            roundtrip, include_ids=True
        )
        assert clone.name == roundtrip.name

    def test_structural_clone_keeps_messy_text_without_parse_equivalence(self):
        doc = Document("messy")
        root = doc.create_root("root")
        root.new_text("  padded  ")
        copy = doc.clone_tree(preserve_ids=True)
        assert serialize(copy) == serialize(doc)

    def test_empty_document_clones(self):
        doc = Document("empty")
        assert doc.clone_tree(preserve_ids=True).root is None

    def test_logical_counts_copied(self):
        doc = build_doc()
        copy = doc.clone_tree(preserve_ids=True)
        for src, dst in zip(doc.iter_elements(), copy.iter_elements()):
            assert src._logical_count == dst._logical_count
            assert src._child_count == dst._child_count

    def test_cloned_ids_resolve_in_the_copy(self):
        doc = build_doc()
        copy = doc.clone_tree(preserve_ids=True)
        for node in doc.iter():
            assert copy.get_node(node.node_id).node_id == node.node_id


class TestRestoreFrom:
    def test_restore_reverts_mutations(self):
        doc = build_doc()
        baseline = serialize(doc, include_ids=True)
        snapshot = doc.clone(preserve_ids=True)
        doc.root.new_element("extra")
        doc.root.children[0].attributes["id"] = "tampered"
        doc.restore_from(snapshot)
        assert serialize(doc, include_ids=True) == baseline

    def test_snapshot_rollback_baseline_uses_restore(self):
        axml = AXMLDocument(build_doc(), name="Shop")
        guard = SnapshotRollback()
        guard.guard("t1", axml)
        baseline = serialize(axml.document, include_ids=True)
        axml.document.root.new_element("extra")
        assert guard.rollback("t1", axml)
        assert serialize(axml.document, include_ids=True) == baseline
        # The restored document keeps serving correct (non-stale) text.
        axml.document.root.new_element("after")
        assert "<after/>" in serialize(axml.document)


class TestEntryCodecMemo:
    def entry(self):
        return LogEntry(
            seq=1, txn_id="t1", kind="service", document_name="Shop",
            action_xml="<action type='noop'/>", records=[], timestamp=1.5,
        )

    def test_memoized_frame_identical_to_cold(self):
        entry = self.entry()
        warm = entry_to_xml(entry)
        # Decoding never seeds the memo, so encoding the decoded entry
        # is a cold render of the same entry.
        before = PROF.snapshot()
        cold = entry_to_xml(entry_from_xml(warm))
        assert PROF.delta_since(before).get("entry_codec_misses") == 1
        assert warm == cold
        before = PROF.snapshot()
        assert entry_to_xml(entry) == cold
        delta = PROF.delta_since(before)
        assert delta.get("entry_codec_hits") == 1
        assert "serialize_tree_builds" not in delta

    def test_decode_does_not_seed_the_cache(self):
        frame = entry_to_xml(self.entry())
        decoded = entry_from_xml(frame)
        assert decoded._xml_cache is None
        assert entry_to_xml(decoded) == frame

    def test_cache_field_excluded_from_equality(self):
        a, b = self.entry(), self.entry()
        entry_to_xml(a)
        assert a == b


class TestSummaryLocalCounters:
    def test_fastpath_counters_stay_out_of_run_summaries(self):
        # The chaos runner merges PROF deltas into run metrics; these
        # count how the work was done, not what the run did, and run
        # summaries have never carried them.
        metrics = MetricsCollector()
        with profiled(metrics):
            serialize(build_doc())
            PROF.incr("query_tree_walks")
        counters = dict(metrics.counters)
        assert counters.get("prof_query_tree_walks") == 1
        assert not any(
            name.startswith("prof_") and name[len("prof_"):] in SUMMARY_LOCAL_COUNTERS
            for name in counters
        )


class TestOracleDigestFirst:
    def make_replicated_pair(self):
        network = SimNetwork()
        replication = network.replication
        peers = {
            "AP2": AXMLPeer("AP2", network),
            "AP3": AXMLPeer("AP3", network),
        }
        peers["AP2"].host_document(
            AXMLDocument.from_xml(
                "<Shop2><a x='1'/><b y='2'/></Shop2>", name="Shop2"
            )
        )
        replication.register_primary("Shop2", "AP2")
        replication.replicate_document("Shop2", "AP3")
        return network, peers

    def test_converged_replicas_match_by_digest(self):
        _network, peers = self.make_replicated_pair()
        oracle = AtomicityOracle(outcomes={}, expected=[], txn_ids={})
        before = PROF.snapshot()
        assert oracle._check_replicas(peers) == []
        assert PROF.delta_since(before).get("replica_digest_matches") == 1

    def test_sibling_reorder_converges_via_canonical_fallback(self):
        # Digest inequality is NOT divergence: the order-insensitive
        # canonical comparison must still judge a sibling permutation
        # of the same nodes as converged.
        _network, peers = self.make_replicated_pair()
        replica_root = peers["AP3"].get_axml_document("Shop2").document.root
        first = replica_root.children[0].detach()
        replica_root.append(first.node)
        primary_doc = peers["AP2"].get_axml_document("Shop2").document
        replica_doc = peers["AP3"].get_axml_document("Shop2").document
        assert canonical_digest(primary_doc) != canonical_digest(replica_doc)
        oracle = AtomicityOracle(outcomes={}, expected=[], txn_ids={})
        assert oracle._check_replicas(peers) == []

    def test_real_divergence_still_detected(self):
        _network, peers = self.make_replicated_pair()
        peers["AP3"].get_axml_document("Shop2").document.root.new_element("extra")
        oracle = AtomicityOracle(outcomes={}, expected=[], txn_ids={})
        kinds = {v.kind for v in oracle._check_replicas(peers)}
        assert kinds == {"replica_diverged"}


class TestSummaryByteIdentity:
    def test_no_fastpath_counters_in_summaries(self):
        result = run_chaos(ChaosConfig(
            seed=3, txns=6, fault_rate=0.2, crash_rate=0.3,
            durability=True, replicas=2, ship_batch=2,
        ))
        counters = result.summary["metrics"]["counters"]
        leaked = [
            name for name in counters
            if name.startswith("prof_")
            and name[len("prof_"):] in SUMMARY_LOCAL_COUNTERS
        ]
        assert leaked == []
