"""Snapshot of the public repro.api surface.

The facade is the documented entry point; this test pins its names so
an accidental rename or removal fails loudly instead of silently
breaking downstream callers — and pins the *absence* of every second
spelling the compatibility layer used to carry, so none grows back."""

import importlib
import importlib.util

import pytest

import repro
import repro.api as api
from repro.chaos import ChaosConfig
from repro.outcome import Outcome


def _public_methods(cls) -> set:
    return {
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and callable(getattr(cls, name, None))
    }


def test_api_all_snapshot():
    assert api.__all__ == [
        "Cluster", "Session", "Transaction", "Outcome", "ChaosConfig",
        "add_run_arguments", "add_output_arguments",
    ]


def test_cluster_surface_snapshot():
    expected = {
        # building
        "add_peer", "host_document", "host_service",
        # access
        "peer", "session",
        # driving
        "run_until", "run_all", "scheduler", "run_topology",
        # canonical deployments
        "atplist", "fig1", "fig2", "from_topology",
    }
    assert _public_methods(api.Cluster) == expected
    for prop in ("peers", "replication", "injector", "metrics", "spans", "clock"):
        assert isinstance(vars(api.Cluster)[prop], property)
    cluster = api.Cluster.atplist()
    assert cluster.peers is cluster.network.peers  # one peer map: the network's
    assert "events" not in vars(api.Cluster)  # read only by tests: network.events
    assert "directory" not in vars(api.Cluster)  # likewise: network.directory


def test_session_surface_snapshot():
    methods = _public_methods(api.Session)
    assert "transaction" in methods
    assert "begin" not in methods  # the alias is gone: one spelling


def test_transaction_surface_snapshot():
    methods = _public_methods(api.Transaction)
    assert {"submit", "invoke", "commit", "abort"} <= methods
    # Context-manager protocol is part of the contract.
    assert hasattr(api.Transaction, "__enter__")
    assert hasattr(api.Transaction, "__exit__")


def test_unified_outcome_exported():
    assert api.Outcome is Outcome
    assert api.ChaosConfig is ChaosConfig


def test_package_exports_facade():
    assert repro.Cluster is api.Cluster
    assert repro.Session is api.Session
    assert repro.Outcome is Outcome
    for name in ("Cluster", "Session", "Outcome"):
        assert name in repro.__all__


#: module → names it once exported: the compatibility layer's second
#: spellings, the serialization-cache switch, and surface nothing called.
REMOVED = {
    "repro.api": (
        "RunConfig", "chaos", "SweepConfig", "chaos_sweep", "add_sweep_arguments",
        "OutcomeStatus",
    ),
    # the oracle's mutations are a test helper (tests/chaos_mutations.py)
    "repro.chaos": ("rerun", "MUTATIONS"),
    "repro.chaos.planner": ("KINDS",),
    "repro.chaos.runner": (
        "_MutationState", "_sweep_row", "_install_skip_undo",
        "_install_double_apply", "_install_crash_skip_undo",
        "_install_message_chaos", "_schedule_kill_primary", "_schedule_lag",
        "MUTATIONS", "_install_mutation",
    ),
    "repro.axml.faults": (
        "FaultHandler", "RetryPolicy", "HookRegistry", "select_handler",
        "_build_handler",
    ),
    "repro.p2p.failure": ("PingMonitor",),
    "repro.sim.harness": ("sweep",),
    # WAL segments and checkpoints live on the network's SimDisk
    "repro.sim.kernel": ("ScratchSpace",),
    "repro.xmlstore.serializer": ("strip_ids", "trees_equal"),
    "repro.sim.scenarios": (
        "Scenario", "build_atplist_scenario", "build_topology",
        "build_fig1", "build_fig2", "run_root_transaction",
    ),
    "repro.outcome": ("InvocationOutcome", "InvokeResult", "OutcomeStatus"),
    # §3.3(d)'s reaction is one call, AXMLPeer.report_stream_timeout
    "repro.axml.continuous": ("StreamSubscription",),
    "repro.p2p": (
        "InvokeResult", "Outcome", "PingMonitor",
        "SiblingStream", "StreamData", "open_stream",
        "ChainNode",
    ),
    # a chain is two maps keyed by peer id, with no node objects
    "repro.p2p.chain": ("ChainNode",),
    "repro.p2p.messages": ("InvokeResult", "Outcome"),
    "repro.axml": ("InvocationOutcome", "Outcome", "FaultHandler", "RetryPolicy"),
    "repro.axml.materialize": ("InvocationOutcome",),
    "repro.txn.modes": ("Durability", "coerce_durability", "RejoinMode"),
    # one function runs an operation: repro.axml.materialize.run_action
    "repro.txn": ("TransactionalOperation",),
    "repro.baselines": (
        "build_naive_variant", "TwoPhaseCoordinator", "TwoPhaseOutcome",
    ),
    "repro.txn.peer_independent": (
        "CompensationLedger", "RecoveryOutcome", "dispatch_ledger",
        "ledger_from_context",
    ),
    "repro.xmlstore": (
        "fast_path_enabled", "set_fast_path_enabled", "fast_path_disabled",
        "diff_documents", "EditScript", "EditOp",
    ),
    "repro.xmlstore.nodes": ("walk_match",),
    # one way to ask "index or walk?" (no switch), one definition of machinery
    "repro.xmlstore.index": (
        "index_enabled", "set_index_enabled", "index_disabled", "_ENABLED",
    ),
    "repro.xmlstore.path": ("_in_live_tree", "_is_sc", "_is_axml_meta"),
    "repro.errors": ("TransactionAborted", "AtomicityViolation"),
    "repro": ("AtomicityViolation", "OutcomeStatus"),
}


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in REMOVED.items() for name in names],
)
def test_removed_spelling_stays_removed(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_mutation_knob_stays_removed():
    # Breaking the protocol on purpose is the tests' job, not a run knob.
    import dataclasses

    from repro.cli import main

    assert "mutate" not in {f.name for f in dataclasses.fields(ChaosConfig)}
    with pytest.raises(SystemExit) as exit_info:
        main(["chaos", "--mutate", "skip_undo"])
    assert exit_info.value.code == 2


def test_stream_module_stays_removed():
    # Only tests entered it; §3.3(d) is AXMLPeer.report_stream_timeout.
    assert importlib.util.find_spec("repro.p2p.streams") is None


def test_removed_members_stay_removed():
    import inspect

    from repro.axml.document import AXMLDocument
    from repro.axml.materialize import MaterializationEngine
    from repro.axml.service_call import ServiceCall
    from repro.baselines.snapshot_rollback import SnapshotRollback
    from repro.obs.histogram import Histogram
    from repro.obs.prof import PROF
    from repro.obs.spans import Span, SpanCollector
    from repro.p2p.chain import PeerChain
    from repro.p2p.failure import FailureInjector
    from repro.p2p.messages import InvokeRequest
    from repro.p2p.network import SimNetwork
    from repro.p2p.peer import AXMLPeer
    from repro.p2p.replication import ReplicationManager
    from repro.p2p.sharding import ShardCoordinator, ShardMigration
    from repro.services.descriptor import ServiceDescriptor
    from repro.services.registry import ServiceRegistry
    from repro.sim.harness import ExperimentTable
    from repro.sim.metrics import MetricsCollector
    from repro.txn.durable_wal import DurableWal
    from repro.txn.manager import TransactionManager
    from repro.txn.modes import DurabilityPolicy
    from repro.txn.occ import OptimisticValidator
    from repro.txn.recovery import FaultPolicy
    from repro.txn.transaction import Transaction, TransactionContext
    from repro.txn.wal import OperationLog
    from repro.xmlstore.index import StructuralIndex
    from repro.xmlstore.nodes import Document, Element, Node
    from repro.xmlstore.path import PathExpr

    for owner, name in (
        (api.Cluster, "wrap"), (api.Cluster, "as_scenario"),
        (ChaosConfig, "to_chaos_config"),
        (DurabilityPolicy, "mode"),
        (ReplicationManager, "_document_holders"),
        # SpanCollector.span owns the exception → status rule
        (AXMLPeer, "_exception_status"),
        (ReplicationManager, "_service_holders"),
        (AXMLPeer, "_txn_stack"), (PROF, "timer"), (PROF, "timings"),
        # no serialization cache, so nothing counts mutations ...
        (Document, "content_epoch"), (Document, "mutation_epoch"),
        (Document("probe"), "_serialize_cache"), (Document("probe"), "_digest_cache"),
        # ... and no caller anywhere
        (Document, "create_text"), (Outcome, "with_status"),
        (ServiceCall, "fault_handler_elements"),
        (OptimisticValidator, "footprint_sizes"),
        (TransactionManager, "validator_stats"),
        (MetricsCollector, "record_compensation_cost"),
        (ReplicationManager, "is_lagged"), (SnapshotRollback, "has_snapshot"),
        # one model of a §3.2 handler, one owner of a share's log entries
        (FaultPolicy, "from_handler"),
        (TransactionContext(Transaction("T", "P"), "P"), "log_seqs"),
        (TransactionContext(Transaction("T", "P"), "P"), "chain_text"),
        (Outcome(), "compensating_definition"),
        # the chain travels as a PeerChain snapshot, not bracket text
        (InvokeRequest("T", "O", "S", "m"), "chain_text"), (Outcome(), "chain_text"),
        (ReplicationManager, "alive_holder"), (AXMLPeer, "hosts_document"),
        # an Outcome carries results; nothing ever set a status on one
        (Outcome, "status"), (Outcome(), "status"), (Outcome, "ok"), (Outcome, "texts"),
        # holder lists are read from the PlacementDirectory, not a wrapper
        (ReplicationManager, "holders"), (ReplicationManager, "service_holders"),
        (ReplicationManager, "alive_service_holder"),
        (FailureInjector, "disconnect_during"), (FailureInjector, "kill_at"),
        # entered by no benchmark, example or CI command, no paper claim
        (SpanCollector, "to_json"), (SpanCollector, "from_json"),
        (MetricsCollector, "to_json"), (MetricsCollector, "from_json"),
        (Span, "from_dict"), (Histogram, "from_dict"),
        (ExperimentTable, "column"), (ExperimentTable, "print"),
        (ExperimentTable, "to_json"),
        (ServiceRegistry, "unregister"), (ServiceRegistry, "descriptors"),
        (ServiceRegistry, "__iter__"), (ServiceRegistry, "__contains__"),
        (Node, "preceding_sibling"), (Node, "following_sibling"),
        (Element, "insert_before"), (Element, "insert_after"),
        (OperationLog, "dump"), (OperationLog, "documents_touched"),
        (StructuralIndex, "stats"), (PathExpr, "parent_path"),
        (PathExpr, "returns_text"), (ServiceDescriptor, "to_wsdl"),
        (AXMLDocument, "_inside_params"), (ShardMigration, "stage_path"),
        (ShardCoordinator, "_remove_stage"),
        # entered only by tests (tools/traffic_census.py), no paper claim
        (TransactionManager, "active_transactions"),
        (OptimisticValidator, "active_transactions"), (OptimisticValidator, "stats"),
        (OptimisticValidator, "conflict_rate"), (OperationLog, "from_entries"),
        (ShardCoordinator, "_rewrite_chains"), (FailureInjector, "clear"),
        (MetricsCollector, "p95"), (MetricsCollector, "max_value"),
        (Histogram, "merge"), (SnapshotRollback, "release"),
        (SnapshotRollback, "approximate_bytes"), (AXMLDocument, "size"),
        (ServiceCall, "param_values"), (ServiceCall, "service_namespace"),
        (Element, "set_text"),
        (api.Cluster, "events"), (api.Transaction, "origin"), (api.Transaction, "finished"),
        (Document, "vacuum"), (StructuralIndex, "drop_element"),
        (TransactionContext, "invoked_peers"), (SimNetwork(), "hop_latency"),
        # an alias of clone_tree, which always keeps ids
        (Document, "clone"), (SimNetwork(), "_peers"),
        # the span collector is a constructor argument
        (TransactionManager, "bind_observability"), (TransactionManager, "_span"),
        # no program path sent one: a ping is SimNetwork.ping
        (importlib.import_module("repro.p2p.messages"), "PingMessage"),
        # a chain answers by peer id: no node to find, no root node
        (PeerChain, "find"), (PeerChain, "root"), (PeerChain("AP1"), "root"),
        # a collector keeps counts; the whole trace is a SpanRecording's
        (SpanCollector(lambda: 0.0), "spans"), (SpanCollector, "finished"),
        (SpanCollector, "by_kind"), (SpanCollector, "children_of"),
        (SpanCollector, "to_dict"), (Span, "finished"),
        # the disk decides what a crash keeps: no private frame buffer,
        # no file handle to close
        (DurableWal, "discard_unflushed"), (DurableWal, "pending_entries"),
        (DurableWal, "close"), (DurableWal, "__enter__"), (DurableWal, "__exit__"),
    ):
        assert not hasattr(owner, name), f"{owner!r}.{name} is back"
    assert "parse_equivalent" not in inspect.signature(Document.clone_tree).parameters
    assert "scratch" not in inspect.signature(ShardCoordinator).parameters
    assert "include_pending" not in inspect.signature(DurableWal.load).parameters
    assert "follow_nested_results" not in inspect.signature(MaterializationEngine).parameters
    for module in (
        "repro.baselines.naive_disconnect", "repro.baselines.two_phase_commit",
        "repro.xmlstore.fastpath", "repro.xmlstore.diff",
        # the §3.3 cases are driven on the peer itself
        "repro.txn.disconnection",
    ):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)


def test_per_transaction_side_tables_stay_folded():
    """One record per transaction: the seven side tables (and the
    methods that re-spelled their lifecycle) have no alias, and the
    single-valued options are constants."""
    import inspect

    from repro.chaos.planner import FaultPlanner
    from repro.p2p.network import SimNetwork
    from repro.p2p.peer import AXMLPeer
    from repro.p2p.sharding import ShardCoordinator
    from repro.sim.scheduler import TransactionScheduler

    peer = AXMLPeer("AP1", SimNetwork())
    peer.begin_transaction()
    for name in (
        "chains", "reusable_results", "_incoming_reuse", "_completed_invokes",
        "known_doomed", "_pending_work", "_txn_spans",
        "_apply_peer_independent", "_drop_completed_invokes",
        "_discard_own_work", "_on_child_death", "_participants_all_reached",
        "_end_txn_span",
    ):
        assert not hasattr(peer, name), f"AXMLPeer.{name} is back"
    for owner, name in (
        (ShardCoordinator, "_crash_peer"), (ShardCoordinator, "_clone"),
    ):
        assert not hasattr(owner, name), f"{owner!r}.{name} is back"
    for owner, names in (
        # the planner reads the ChaosConfig it plans for, not copies of it
        (FaultPlanner, (
            "disconnect_origins", "seed", "txns", "fault_rate", "horizon",
            "crash_rate", "checkpoints", "replicas", "sharding",
            "provider_methods",
        )),
        (TransactionScheduler, ("backoff_base", "backoff_factor")),
        (ShardCoordinator, ("defer_delay",)),
    ):
        assert not set(names) & set(inspect.signature(owner).parameters)


def test_one_rejoin_mode_and_four_durability_knobs():
    """A restart rebuilds every recovered share in doubt — there is no
    mode that compensates unconditionally — and the write-ahead barrier
    and the flush quantum are not options."""
    import dataclasses
    import inspect

    from repro.p2p.peer import AXMLPeer
    from repro.txn.durable_wal import DurableWal
    from repro.txn.manager import TransactionManager
    from repro.txn.modes import DurabilityPolicy

    assert list(inspect.signature(AXMLPeer.rejoin).parameters) == ["self"]
    assert "mode" not in inspect.signature(TransactionManager.recover).parameters
    assert [f.name for f in dataclasses.fields(DurabilityPolicy)] == [
        "directory", "wal_batch", "checkpoint_every",
    ]
    assert "ordered_compensation" not in inspect.signature(TransactionManager).parameters
    assert "flush_interval" not in inspect.signature(DurableWal).parameters


def test_collaborators_every_caller_passes_are_required():
    """The WAL's peer, disk, metrics, event queue and document source,
    a checkpoint store's disk, directory and peer, the
    manager's span collector, the collector's clock and a span's peer
    (and, for a stacked span, its attributes), what the log
    is told per append and a chain edit's super flag and notice scope
    have no default: every program caller passes them, so no ``is
    None`` branch waits."""
    import inspect

    from repro.obs.spans import SpanCollector
    from repro.p2p.chain import PeerChain
    from repro.txn.checkpoint import CheckpointStore
    from repro.txn.durable_wal import DurableWal
    from repro.txn.manager import TransactionManager
    from repro.txn.wal import OperationLog

    for callee, names in (
        (DurableWal, ("policy", "peer_id", "disk", "metrics", "events", "document_source")),
        (CheckpointStore, ("disk", "directory", "peer_id")),
        (TransactionManager, ("peer_id", "document_provider", "spans")),
        (SpanCollector, ("now",)),
        (SpanCollector.span, ("peer", "attrs")),
        (SpanCollector.start, ("peer",)),
        (OperationLog, ("peer_id",)),
        (OperationLog.append, ("records", "timestamp", "action")),
        (OperationLog.approximate_bytes, ("txn_id",)),
        (PeerChain.add_invocation, ("child_super",)),
        (PeerChain.substitute, ("super_peer",)),
        (PeerChain.sibling_notice_targets, ("scope",)),
    ):
        parameters = inspect.signature(callee).parameters
        assert [parameters[name].default for name in names] == [inspect.Parameter.empty] * len(
            names
        ), callee


#: Options whose only non-default callers were tests: each is a constant
#: now (``HOP_LATENCY``, ``HISTORY_LIMIT``, ``MAX_DEPTH``, ...) or gone, so
#: passing one fails before the callee runs.
REMOVED_KEYWORDS = [
    ("repro.p2p.network:SimNetwork", (), {"hop_latency": 0.01}),
    ("repro.p2p.network:SimNetwork", (), {"clock": None}),
    ("repro.p2p.network:SimNetwork", (), {"metrics": None}),
    ("repro.p2p.network:SimNetwork", (), {"spans": None}),
    ("repro.api:Cluster", (), {"hop_latency": 0.01}),
    ("repro.api:Cluster.from_topology", ({},), {"super_peers": ("AP1",)}),
    ("repro.api:Cluster.from_topology", ({},), {"peer_independent": True}),
    ("repro.api:Cluster.from_topology", ({},), {"hop_latency": 0.01}),
    ("repro.api:Cluster.atplist", (), {"points_value": "1234"}),
    ("repro.api:Cluster.atplist", (), {"peer_independent": True}),
    ("repro.api:Cluster.atplist", (), {"chaining": False}),
    ("repro.txn.occ:OptimisticValidator", (), {"history_limit": 5}),
    ("repro.axml.materialize:MaterializationEngine", (None, None), {"max_depth": 3}),
    ("repro.axml.service_call:install_service_call", (None, "m"), {"frequency": 1.0}),
    ("repro.axml.service_call:install_service_call", (None, "m"), {"service_namespace": "n"}),
    ("repro.xmlstore.serializer:serialize", (None,), {"declaration": True}),
    ("repro.sim.workload:generate_participant_sets", (None, (), 0), {"min_size": 2}),
    ("repro.sim.workload:generate_participant_sets", (None, (), 0), {"max_size": 6}),
    ("repro.sim.throughput:throughput_sweep", (), {"clients_axis": (1,)}),
    ("repro.sim.throughput:throughput_sweep", (), {"hot_axis": (0.1,)}),
    ("repro.sim.throughput:throughput_sweep", (), {"fail_axis": (0.0,)}),
    ("repro.txn.durable_wal:DurableWal", ("d",), {"segment_max_frames": 4}),
    ("repro.txn.modes:DurabilityPolicy", (), {"directory": "d", "segment_max_frames": 4}),
    # the network owns its replication manager and failure injector
    ("repro.p2p.peer:AXMLPeer", ("P", None), {"injector": None}),
    ("repro.p2p.replication:ReplicationManager", (None,), {"ship_batch": 2}),
    ("repro.p2p.sharding:ShardCoordinator", (None, None), {"replication": None}),
    ("repro.api:Cluster.run_until", (None, 1.0), {"max_events": 5}),
    ("repro.api:Cluster.run_all", (None,), {"max_events": 5}),
    ("repro.txn.manager:TransactionManager.abort_local", (None, "T1"), {"meter": None}),
    ("repro.txn.manager:TransactionManager.apply_compensation_xml", (None, ""), {"meter": None}),
    ("repro.xmlstore.nodes:Document.create_element", (None, "e"), {"attributes": {}}),
    ("repro.sim.workload:generate_catalogue", (None, 1), {"service_peers": ("P",)}),
    ("repro.xmlstore.serializer:pretty", (None,), {"indent": " "}),
    ("repro.obs.prof:profiled", (), {"prefix": "p_"}),
    ("repro.obs.prof:profile_summary", ({},), {"prefix": "p_"}),
    ("repro.sim.metrics:MetricsCollector.record_reused_invocation", (None,), {"count": 2}),
    ("repro.sim.scheduler:TransactionScheduler.submit_open_loop", (None, (), 1.0), {"start": 1.0}),
    ("repro.sim.throughput:_rounded", (1.0,), {"digits": 2}),
    # values no non-test caller moved: constants, or worked out
    ("repro.p2p.replication:ReplicationManager.settle", (None,), {"drain": None}),
    ("repro.chaos.runner:chaos_sweep", (None, ()), {"fault_rates": (0.2,)}),
    ("repro.sim.kernel:EventQueue.run_until", (None, 1.0), {"max_events": 5}),
    ("repro.sim.kernel:EventQueue.run_all", (None,), {"max_events": 5}),
    ("repro.sim.scheduler:TransactionScheduler.run", (None,), {"max_events": 5}),
    ("repro.sim.throughput:run_throughput_point", (0, 1, 0.0, 0.0), {"txn_length": 2}),
    ("repro.sim.throughput:run_throughput_point", (0, 1, 0.0, 0.0), {"think_time": 0.1}),
    ("repro.sim.throughput:run_throughput_point", (0, 1, 0.0, 0.0), {"max_attempts": 2}),
    ("repro.sim.throughput:run_throughput_point", (0, 1, 0.0, 0.0), {"peer_count": 3}),
    ("repro.obs.spans:SpanCollector.slowest", (None,), {"kind": "rpc"}),
    ("repro.xmlstore.nodes:Document.clone_tree", (None,), {"preserve_ids": False}),
    ("repro.xmlstore.nodes:Document.restore_from", (None, None), {"preserve_ids": False}),
    ("repro.txn.durable_wal:DurableWal", (), {"directory": "d"}),
    ("repro.txn.durable_wal:DurableWal", ("d",), {"batch_size": 4}),
    ("repro.txn.durable_wal:DurableWal", ("d",), {"checkpoint_every": 2}),
    ("repro.axml.continuous:ContinuousDriver", (None, None, None), {"on_tick": None}),
    ("repro.axml.continuous:ContinuousDriver.tick_count", (None,), {"method_name": "m"}),
    ("repro.sim.kernel:Clock", (), {"start": 1.0}),
    ("repro.sim.workload:poisson_arrival_times", (None, 1.0, 1), {"start": 1.0}),
    ("repro.api:Cluster.run_topology", (None,), {"root": "AP3"}),
    # queries materialize lazily; eager is MaterializationEngine.materialize_all
    ("repro.api:Transaction.submit", (None, "<a/>"), {"evaluation": "eager"}),
    ("repro.p2p.peer:AXMLPeer.submit", (None, "T1", "<a/>"), {"evaluation": "eager"}),
    ("repro.txn.manager:TransactionManager.execute", (None, "T1", None, "D"),
     {"evaluation": "eager"}),
    ("repro.axml.materialize:run_action", (None, None, None), {"evaluation": "eager"}),
    ("repro.services.service:_run_local", (None, "", None, None), {"evaluation": "eager"}),
    ("repro.services.service:QueryService", (None, ""), {"evaluation": "eager"}),
    # defaults no traffic moved
    ("repro.api:Transaction.submit", (None, "<a/>"), {"document_name": "D"}),
    ("repro.p2p.peer:AXMLPeer.submit", (None, "T1", "<a/>"), {"document_name": "D"}),
    ("repro.api:Transaction.invoke", (None, "P", "m"), {"policies": ()}),
    ("repro.sim.scheduler:TransactionScheduler.submit", (None, None), {"on_complete": None}),
    ("repro.txn.spheres:analyze_sphere", ((), ()), {"modifying_peers": ()}),
    ("repro.obs.spans:SpanCollector.slowest", (None,), {"n": 2}),
    ("repro.p2p.failure:FailureInjector.fault_service", (None, "P", "m", "F"), {"times": 2}),
    # span attributes are one mapping: a stray keyword is no attribute
    ("repro.obs.spans:SpanCollector.start", (None, "t", "transaction"), {"detached": True}),
    ("repro.obs.spans:SpanCollector.span", (None, "s", "rpc"), {"target": "AP2"}),
    ("repro.p2p.peer:AXMLPeer.begin_transaction", (None,), {"label": "c1"}),
    ("repro.api:Transaction", (None,), {"attempt": "2"}),
    ("repro.api:Session.transaction", (None,), {"attempt": "2"}),
]


@pytest.mark.parametrize(
    "target, args, kwargs", REMOVED_KEYWORDS,
    ids=[f"{target.split(':')[1]}-{list(kw)[-1]}" for target, _, kw in REMOVED_KEYWORDS],
)
def test_removed_keyword_is_rejected(target, args, kwargs):
    module, qualname = target.split(":")
    callee = importlib.import_module(module)
    for part in qualname.split("."):
        callee = getattr(callee, part)
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        callee(*args, **kwargs)


def test_wal_has_one_compaction_per_run():
    """Checkpoints bound replay during a run and ``reload`` compacts at
    restart; there is no segment rollover beside them."""
    from repro.sim.disk import SimDisk
    from repro.sim.kernel import Clock, EventQueue
    from repro.sim.metrics import MetricsCollector
    from repro.txn.durable_wal import DurableWal
    from repro.txn.modes import DurabilityPolicy

    wal = DurableWal(
        DurabilityPolicy("P"), "P", SimDisk(), MetricsCollector(), EventQueue(Clock()), dict
    )
    for name in ("segment_max_frames", "_segment_frames"):
        assert not hasattr(wal, name)
