"""Build, run and settle one deterministic chaos experiment.

One run = a seeded concurrent workload (``repro.sim.scheduler``) over a
generated cluster, overlaid with a seeded :class:`FaultPlan`, followed
by a deterministic **settlement** phase and the
:class:`~repro.chaos.oracle.AtomicityOracle` sweep.

Cluster shape
-------------
``origins`` client peers (``C1`` …, super-peers, documents ``O1`` …)
issue all transactions; ``providers`` service peers (``AP1`` …,
documents ``D1`` …) form a binary-heap delegation tree: ``APi`` hosts a
:class:`~repro.services.service.DelegatingService` ``Si`` that inserts
one ``<chaos txn="$tag" step="$step"/>`` marker into ``Di`` and
delegates to ``S(2i)``/``S(2i+1)``.  Parameters are forwarded, so one
``InvokeOp`` leaves exactly one marker per document of the target's
subtree — the addressable-effect scheme the oracle checks.  Faults
target providers only: an origin is the paper's single commit point,
and the scheduler client would die with it.

Settlement
----------
After the scheduler drains: (1) run every pending event (delayed
messages, late planned disconnects, crash restarts); (2) reconnect
dead peers — merely disconnected, so their volatile state is intact and
there is nothing to recover (:meth:`AXMLPeer.rejoin` is the crash
path's restart); (3) resolve each peer's in-doubt
shares against the origin's decision (``resolve_in_doubt``), which is
exactly what a returning peer can learn by asking any chain member;
(4) release per-transaction protocol state (``forget_transaction``).
Only then does the oracle sweep.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.oracle import AtomicityOracle, ExpectedEffect, Violation
from repro.chaos.planner import (
    CHAOS_FAULT,
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultPlanner,
    typed_fields,
)
from repro.obs import run_summary
from repro.obs.prof import profiled
from repro.query.parser import parse_action  # noqa: F401 - alias benchmarks/e2e's tracer test reads
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import DelegatingService
from repro.sim.rng import SeededRng, stable_seed
from repro.sim.scheduler import COMMITTED, InvokeOp, TxnResult, TxnSpec
from repro.txn.modes import DurabilityPolicy
from repro.txn.recovery import DISCONNECT_FAULT, FaultPolicy

@dataclass(frozen=True)
class ChaosConfig:
    """Every knob of one run — the single configuration surface
    (JSON-round-trippable).

    The same frozen value drives :func:`run_chaos`, one cell of
    :func:`chaos_sweep` and the ``repro chaos`` CLI (whose
    flags map onto these fields through
    :func:`~repro.api.add_run_arguments` / :meth:`from_namespace`).
    Crash faults, checkpointing, group commit and replication all work
    on the on-disk WAL, so setting any of them implies
    ``durability=True``.
    """

    seed: int = 7
    txns: int = 20
    providers: int = 6
    origins: int = 2
    concurrency: int = 4
    ops_per_txn: int = 3
    invoke_fraction: float = 0.6
    fault_rate: float = 0.2
    arrival_rate: float = 20.0
    op_gap: float = 0.01
    handlers: bool = False
    #: Give every provider a durable on-disk WAL (scratch directories).
    durability: bool = False
    #: Expected crash events per run = crash_rate * txns.
    crash_rate: float = 0.0
    #: WAL checkpoint interval in appended entries; 0 = no checkpoints.
    checkpoint_every: int = 0
    #: WAL group-commit batch size; 1 = flush every frame.
    wal_batch: int = 1
    #: Replicas per provider document/service (0 = no replication).
    #: > 0 turns on WAL shipping, deterministic failover and the
    #: ``kill_primary``/``lag_replica`` fault kinds.
    replicas: int = 0
    #: Committed entries buffered per ship channel before one
    #: :class:`~repro.p2p.messages.WalShipMessage` carries them, unencoded.
    ship_batch: int = 1
    #: Elastic sharding: place provider documents/services by a
    #: consistent-hash ring (``repro.p2p.sharding``) instead of the
    #: static one-doc-per-provider map, and plan ``shard_join`` /
    #: ``shard_retire`` / ``crash_during_migration`` faults.
    sharding: bool = False
    #: Spare peers (``SP1`` …) that start outside the ring and join it
    #: mid-run, triggering live shard migrations (needs ``sharding``).
    shard_spares: int = 0

    def __post_init__(self) -> None:
        if self.providers < 1 or self.origins < 1 or self.txns < 1:
            raise ValueError("providers, origins and txns must all be >= 1")
        if (
            self.crash_rate > 0
            or self.checkpoint_every > 0
            or self.wal_batch > 1
            or self.replicas > 0
        ):
            object.__setattr__(self, "durability", True)
        if self.checkpoint_every < 0 or self.wal_batch < 1:
            raise ValueError(
                "checkpoint_every must be >= 0 and wal_batch >= 1"
            )
        if self.replicas < 0 or self.ship_batch < 1:
            raise ValueError("replicas must be >= 0 and ship_batch >= 1")
        if self.replicas >= self.providers and self.replicas > 0:
            raise ValueError(
                f"replicas={self.replicas} needs at least "
                f"{self.replicas + 1} providers: each replica is placed "
                "on a distinct provider other than the primary"
            )
        if self.ship_batch > 1 and self.replicas == 0:
            raise ValueError(
                "ship_batch tunes WAL shipping; it requires replicas > 0"
            )
        if self.shard_spares < 0:
            raise ValueError("shard_spares must be >= 0")
        if self.shard_spares > 0 and not self.sharding:
            raise ValueError(
                "shard_spares adds ring members; it requires sharding=True"
            )

    @property
    def horizon(self) -> float:
        """Virtual-time window planned disconnects are sampled from."""
        return self.txns / self.arrival_rate + 2.0

    def to_dict(self) -> Dict[str, object]:
        """Every field, with the :data:`_ELIDED_AT_DEFAULT` knobs left
        out while they sit at their defaults."""
        out = dict(asdict(self))
        for name in _ELIDED_AT_DEFAULT:
            if out[name] == getattr(type(self), name):
                del out[name]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChaosConfig":
        """Rebuild from :meth:`to_dict` output (a repro file's
        ``config``); an unknown key or a wrongly typed value is a
        ``ValueError`` naming it."""
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown config field(s) {unknown}")
        return cls(**typed_fields(cls, data, "config"))

    @classmethod
    def from_namespace(cls, args) -> "ChaosConfig":
        """Build from an argparse namespace produced by a parser that
        used :func:`~repro.api.add_run_arguments` (missing attributes
        keep their field defaults)."""
        values = {}
        for f in fields(cls):
            attr = "ops" if f.name == "ops_per_txn" else f.name
            value = getattr(args, attr, None)
            if value is not None:
                values[f.name] = value
        return cls(**values)


#: Knobs added after the first pinned summaries (WAL tuning,
#: replication, sharding): elided from :meth:`ChaosConfig.to_dict` at
#: their defaults so summaries and replay files of runs that do not use
#: them stay byte-identical to what earlier versions emitted.
_ELIDED_AT_DEFAULT = (
    "checkpoint_every", "wal_batch", "replicas", "ship_batch",
    "sharding", "shard_spares",
)


@dataclass
class ChaosRunResult:
    """Everything one run produced; ``ok`` iff the oracle found nothing."""

    config: ChaosConfig
    plan: FaultPlan
    results: List[TxnResult]
    violations: List[Violation]
    summary: Dict[str, object]
    cluster: object = field(repr=False, default=None)
    expected: List[ExpectedEffect] = field(repr=False, default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def oracle(self) -> AtomicityOracle:
        """A fresh oracle over this run's outcomes: settlement's sweep,
        and a re-check of a cluster after poking at it."""
        return AtomicityOracle(
            outcomes={r.label: r.status for r in self.results},
            expected=self.expected,
            txn_ids={r.label: list(r.txn_ids) for r in self.results},
        )


# ---------------------------------------------------------------------------
# cluster construction
# ---------------------------------------------------------------------------

def _provider_children(index: int, providers: int) -> List[int]:
    return [c for c in (2 * index, 2 * index + 1) if c <= providers]


def _provider_subtree(index: int, providers: int) -> List[int]:
    out, stack = [], [index]
    while stack:
        i = stack.pop()
        out.append(i)
        stack.extend(reversed(_provider_children(i, providers)))
    return out


def _marker_template(document: str) -> str:
    return (
        '<action type="insert"><data><chaos txn="$tag" step="$step"/></data>'
        f"<location>Select d from d in {document}//items;</location></action>"
    )


def build_chaos_cluster(config: ChaosConfig):
    """The generated deployment: returns ``(cluster, origins, providers)``."""
    from repro.api import Cluster

    cluster = Cluster()
    cluster.replication.ship_batch = config.ship_batch
    scratch = None
    if config.durability:
        from repro.sim.kernel import ScratchSpace

        scratch = ScratchSpace()
    #: The run's scratch root (None without durability); run_chaos
    #: removes it after the oracle sweep.
    cluster.scratch = scratch
    origins = [f"C{j}" for j in range(1, config.origins + 1)]
    providers = [f"AP{i}" for i in range(1, config.providers + 1)]
    for j, origin in enumerate(origins, start=1):
        cluster.add_peer(origin, super_peer=True)
        cluster.host_document(origin, f"<O{j}><items/></O{j}>", name=f"O{j}")
    for i, provider in enumerate(providers, start=1):
        cluster.add_peer(provider, **_durability_kwargs(config, scratch, provider))
        if config.sharding:
            # Placement is the ring's job (_place_sharded), not the
            # static one-doc-per-provider map.
            continue
        cluster.host_document(provider, f"<D{i}><items/></D{i}>", name=f"D{i}")
        cluster.host_service(provider, _chaos_service(i, config.providers))
    for spare in _spare_names(config):
        cluster.add_peer(spare, **_durability_kwargs(config, scratch, spare))
    if config.sharding:
        _place_sharded(cluster, config, providers)
    elif config.replicas > 0:
        _place_replicas(cluster, config, providers)
    _install_fault_policies(cluster, config)
    return cluster, origins, providers


def _durability_kwargs(config: ChaosConfig, scratch, peer_id: str) -> Dict[str, object]:
    if scratch is None:
        return {}
    return {
        "durability": DurabilityPolicy(
            directory=scratch.path(peer_id),
            wal_batch=config.wal_batch,
            checkpoint_every=config.checkpoint_every,
        )
    }


def _spare_names(config: ChaosConfig) -> List[str]:
    return [f"SP{k}" for k in range(1, config.shard_spares + 1)]


def _chaos_service(index: int, providers: int) -> DelegatingService:
    """The marker service ``S<index>``: inserts one ``<chaos/>`` marker
    into ``D<index>`` and delegates down the binary heap.  Delegation
    targets are the *build-time* peers; under sharding the placement
    directory reroutes them at invoke time."""
    delegations = [
        (f"AP{c}", f"S{c}") for c in _provider_children(index, providers)
    ]
    return DelegatingService(
        ServiceDescriptor(f"S{index}", params=("tag", "step"), target_document=f"D{index}"),
        delegations,
        local_action_template=_marker_template(f"D{index}"),
    )


def _place_sharded(cluster, config: ChaosConfig, providers: Sequence[str]) -> None:
    """Ring-driven placement: every shard ``D<i>`` (with its co-located
    service ``S<i>``) lands on ``ring.lookup("D<i>")`` — primary first,
    then ``config.replicas`` replica holders.  Spares start *outside*
    the ring; planned ``shard_join`` events bring them in mid-run.
    """
    from repro.p2p.sharding import ShardCoordinator, ShardRing

    ring = ShardRing(
        seed=stable_seed(config.seed, "ring"),
        members=providers,
        replicas=config.replicas,
    )
    coordinator = ShardCoordinator(cluster.network, ring)
    cluster.shard_coordinator = coordinator
    for i in range(1, config.providers + 1):
        document, method = f"D{i}", f"S{i}"
        owners = ring.lookup(document)
        cluster.host_document(
            owners[0], f"<D{i}><items/></D{i}>", name=document
        )
        cluster.host_service(owners[0], _chaos_service(i, config.providers))
        coordinator.register_shard(document, method)
        for holder in owners[1:]:
            cluster.replication.replicate_document(document, holder)
            cluster.replication.replicate_service(method, holder)


def _place_replicas(cluster, config: ChaosConfig, providers: Sequence[str]) -> None:
    """Seeded replica placement: each provider's document *and* service
    get ``config.replicas`` copies on distinct other providers, drawn
    from the dedicated ``"placement"`` RNG stream (placement depends on
    the seed and the knobs only — never on dict order).
    """
    rng = SeededRng(stable_seed(config.seed, "placement"))
    for provider in providers:
        index = int(provider[2:])
        pool = [p for p in providers if p != provider]
        for _ in range(config.replicas):
            choice = rng.choice(pool)
            pool.remove(choice)
            cluster.replication.replicate_document(f"D{index}", choice)
            cluster.replication.replicate_service(f"S{index}", choice)


def _install_fault_policies(cluster, config: ChaosConfig) -> None:
    """The §3.2 retry policies of a run, on every peer (spares included)
    for every marker service: ``ChaosFault`` when ``config.handlers``,
    then ``PeerDisconnected`` when documents have other holders
    (replicas, or shards that migrate) — forward recovery must engage
    (and consult the directory/failover selector) when a holder dies
    mid-invocation; without a handler the §3.2 default is backward
    recovery and the replicas would never be asked.
    """
    names = []
    if config.handlers:
        names.append(CHAOS_FAULT)
    if config.replicas > 0 or config.sharding:
        names.append(DISCONNECT_FAULT)
    if not names:
        return
    policies = [FaultPolicy(fault_names={n}, retry_times=2) for n in names]  # hash-ok: membership
    for peer in cluster.peers.values():
        for i in range(1, config.providers + 1):
            peer.set_fault_policy(f"S{i}", policies)


# ---------------------------------------------------------------------------
# workload generation
# ---------------------------------------------------------------------------

def generate_workload(
    config: ChaosConfig, origins: Sequence[str], providers: Sequence[str]
) -> Tuple[List[TxnSpec], List[ExpectedEffect]]:
    """Seeded specs plus the exact markers each would leave if committed."""
    rng = SeededRng(stable_seed(config.seed, "workload"))
    specs: List[TxnSpec] = []
    expected: List[ExpectedEffect] = []
    for t in range(config.txns):
        label = f"T{t:03d}"
        origin_index = t % len(origins)
        origin = origins[origin_index]
        origin_doc = f"O{origin_index + 1}"
        operations: List[object] = []
        for k in range(config.ops_per_txn):
            step = f"s{k}"
            if rng.random() < config.invoke_fraction:
                target = rng.choice(list(providers))
                index = int(target[2:])
                operations.append(InvokeOp(
                    target, f"S{index}", {"tag": label, "step": step}
                ))
                for m in _provider_subtree(index, config.providers):
                    expected.append(
                        ExpectedEffect(f"AP{m}", f"D{m}", label, step)
                    )
            else:
                operations.append(
                    '<action type="insert">'
                    f'<data><chaos txn="{label}" step="{step}"/></data>'
                    f"<location>Select d from d in {origin_doc}//items;"
                    "</location></action>"
                )
                expected.append(
                    ExpectedEffect(origin, origin_doc, label, step)
                )
        specs.append(TxnSpec(label, origin, tuple(operations)))
    return specs, expected


# ---------------------------------------------------------------------------
# fault application
# ---------------------------------------------------------------------------

def apply_plan(cluster, config: ChaosConfig, plan: FaultPlan) -> None:
    """Script every planned event onto the injector / message hook /
    event queue, each by its :data:`~repro.chaos.planner.FAULT_KINDS`
    row."""
    for event in plan.events:
        if config.sharding:
            event = _resharded(cluster, event)
        FAULT_KINDS[event.kind][1](cluster, config, event)


def _resharded(cluster, event: FaultEvent) -> FaultEvent:
    """Retarget a planned fault at the shard's *current* holders.

    The planner scripts faults against the static heap topology
    (``AP<i>`` runs ``S<i>``); under sharding the ring decides who
    actually executes what, so point faults are remapped to the
    placement directory's primary at apply time.  Timed kinds that
    resolve their victim at fire time (``kill_primary``,
    ``lag_replica``) and placement-free kinds pass through unchanged.
    """
    directory = cluster.network.directory

    def primary_of(method: str) -> str:
        holders = directory.service_holders(method)
        return holders[0] if holders else ""

    if event.kind in ("service_fault", "crash"):
        peer = primary_of(event.method)
        if peer and peer != event.peer:
            return replace(event, peer=peer)
    elif event.kind == "disconnect_point":
        trigger = primary_of(event.method)
        parent_index = int(event.method[1:]) // 2
        peer = primary_of(f"S{parent_index}") if parent_index >= 1 else ""
        if trigger and peer and peer != trigger:
            return replace(event, peer=peer, trigger=trigger)
    return event


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def run_chaos(config: ChaosConfig, plan: Optional[FaultPlan] = None) -> ChaosRunResult:
    """Execute one chaos run; pass *plan* to replay/shrink a schedule."""
    cluster, origins, providers = build_chaos_cluster(config)
    try:
        if plan is None:
            plan = FaultPlanner(config, providers, _spare_names(config)).plan()
        apply_plan(cluster, config, plan)

        specs, expected = generate_workload(config, origins, providers)
        scheduler = cluster.scheduler(
            max_inflight=config.concurrency,
            op_gap=config.op_gap,
            seed=stable_seed(config.seed, "sched"),
        )
        scheduler.submit_open_loop(specs, rate=config.arrival_rate)
        # The whole hot region is profiled: prof counters are logical event
        # counts, so they land in the summary deterministically (identical
        # across reruns and across serial vs. parallel sweep execution).
        with profiled(cluster.metrics):
            result = ChaosRunResult(
                config, plan, scheduler.run(), [], {}, cluster, expected
            )
            result.violations = _settle_and_check(result)
        result.summary = {
            "version": 1,
            "config": config.to_dict(),
            "plan": plan.to_dict(),
            "outcomes": {
                r.label: r.status for r in sorted(result.results, key=lambda r: r.label)
            },
            "violations": [v.to_dict() for v in result.violations],
            "metrics": run_summary(cluster.metrics),
        }
        cluster.metrics.incr("chaos_runs")
        if result.violations:
            cluster.metrics.incr("chaos_violations", len(result.violations))
        return result
    finally:
        _cleanup_durability(cluster)


def _cleanup_durability(cluster) -> None:
    """Close WAL handles and remove the run's scratch root.

    Runs after the oracle sweep (which reads the WALs), so no tempdir
    artifact outlives the run even when it raised.
    """
    scratch = getattr(cluster, "scratch", None)
    if scratch is None:
        return
    for peer in cluster.peers.values():
        if peer.wal is not None:
            peer.wal.close()
    scratch.cleanup()


def _settle_and_check(result: ChaosRunResult) -> List[Violation]:
    cluster, config = result.cluster, result.config
    # (1) drain: delayed messages and late planned events still fire
    # while dead peers are dead — chaos timing is part of the run.
    cluster.run_all()
    # (2) every peer returns (documents kept, liveness flag cleared).
    for peer_id, peer in cluster.peers.items():
        if peer.disconnected:
            cluster.network.reconnect(peer_id)
    # (3) settle in-doubt shares against the origins' decisions.
    decisions: List[Tuple[str, bool]] = []
    for txn in result.results:
        for txn_id in txn.txn_ids[:-1]:
            decisions.append((txn_id, False))
        if txn.txn_ids:
            decisions.append((txn.txn_ids[-1], txn.status == COMMITTED))
    for txn_id, committed in decisions:
        for peer in cluster.peers.values():
            if peer.resolve_in_doubt(txn_id, committed) != "noop":
                cluster.metrics.incr("chaos_settled_shares")
    # (3b) converge the replica sets: lift lag, flush ship buffers,
    # apply in-flight frames, resync crash-restarted holders.  After
    # this every alive holder must equal its primary (replica_diverged).
    # Sharded runs ship between migration endpoints even with
    # replicas=0, so they settle the channels too.
    if config.replicas > 0 or config.sharding:
        cluster.replication.settle()
    # (3c) reconcile shard placement with the ring: parked/crashed
    # migrations converge, stray copies drop, the directory ends up
    # exactly at the ring's assignment (else the oracle's
    # directory_stale/shard_* predicates fire).
    if config.sharding:
        cluster.shard_coordinator.settle()
    # (4) hygiene: release per-txn protocol state everywhere.
    for peer in cluster.peers.values():
        for txn_id, _committed in decisions:
            peer.forget_transaction(txn_id)
    # (5) sweep.
    return result.oracle().check(cluster.peers)


def describe_plan(plan: FaultPlan) -> List[str]:
    """Human-readable one-liners, one per event (CLI / docs output)."""
    return [FAULT_KINDS[e.kind][0].format(**asdict(e)) for e in plan.events]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _sweep_cell(config: ChaosConfig) -> Dict[str, object]:
    """One sweep point: run + reduce to a picklable table row.

    The full :class:`ChaosRunResult` (cluster, closures) never crosses
    a process boundary; failing configs are re-run in the parent —
    runs are deterministic, so the re-run reproduces the exact failure
    and yields a shrink-ready result object.
    """
    result = run_chaos(config)
    committed = sum(1 for r in result.results if r.committed)
    return {
        "seed": config.seed,
        "conc": config.concurrency,
        "fault_rate": config.fault_rate,
        "faults": len(result.plan),
        "txns": len(result.results),
        "committed": committed,
        "aborted": len(result.results) - committed,
        "violations": len(result.violations),
    }


def chaos_sweep(
    base: ChaosConfig,
    seeds: Sequence[int],
    concurrencies: Sequence[int] = (2, 4),
    metrics=None,
    workers: int = 1,
):
    """Run seeds × concurrency on *base*; returns ``(table, failures)``.

    Aggregate ``chaos_runs`` / ``chaos_violations`` counters land on
    *metrics* (a :class:`~repro.sim.metrics.MetricsCollector`; one is
    created when omitted) so sweeps plug into the ``repro.obs``
    reporting pipeline.  ``failures`` holds every failing
    :class:`ChaosRunResult`, ready for shrinking.

    ``workers`` > 1 fans the grid over that many processes (0 = all
    cores); rows merge in serial order, so the table — and its JSON
    artifact — is byte-identical to ``workers=1`` (see
    :mod:`repro.sim.parallel` for the contract).
    """
    from repro.sim.harness import ExperimentTable
    from repro.sim.metrics import MetricsCollector
    from repro.sim.parallel import parallel_map

    metrics = metrics or MetricsCollector()
    table = ExperimentTable(
        title="chaos: atomicity under seeded faults",
        columns=[
            "seed", "conc", "fault_rate", "faults", "txns",
            "committed", "aborted", "violations",
        ],
    )
    configs = [
        replace(base, seed=seed, concurrency=concurrency)
        for concurrency in concurrencies
        for seed in seeds
    ]
    failures: List[ChaosRunResult] = []
    for config, row in zip(configs, parallel_map(_sweep_cell, configs, workers)):
        table.add_row(**row)
        metrics.incr("chaos_runs")
        if row["violations"]:
            metrics.incr("chaos_violations", row["violations"])
            failures.append(run_chaos(config))
    table.add_note(f"{len(configs)} runs, {len(failures)} failing")
    return table, failures
