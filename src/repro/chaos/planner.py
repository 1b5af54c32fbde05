"""Seed-driven fault planning for the chaos harness.

A :class:`FaultPlanner` samples a :class:`FaultPlan` — a list of
:class:`FaultEvent` — from the simulation RNG.  Four event kinds cover
the failure dimensions of §3.2–§3.3:

* ``service_fault`` — a scripted :class:`~repro.errors.ServiceFault` at
  a random depth of the invocation tree (``before_execute`` = no work
  done, ``after_execute`` = the Fig. 1 shape);
* ``disconnect`` — a peer leaves at a random virtual time (§1:
  "joining and leaving the system arbitrarily");
* ``disconnect_point`` — a peer dies at a protocol point of a
  *neighbour's* execution: scripting ``dead=parent, trigger=child``
  at ``after_local_work``/``before_return`` opens the §3.3(b) window
  (completed work that cannot be returned);
* ``message_chaos`` — one-way notifications are dropped/delayed via the
  network message hook.  Only the §3.3 effort-optimization messages
  (``DisconnectNotice``, ``RedirectedResult``) are interfered with: the
  paper's protocol treats them as best-effort, while commit/abort
  decisions are assumed reliable (see ``docs/CHAOS.md``);
* ``crash`` — a provider's *process* dies at a protocol point, losing
  all volatile state (contexts, in-memory log, chains); it restarts
  ``delay`` later and recovers from its durable WAL
  (``rejoin(mode=RejoinMode.IN_DOUBT)``, see ``docs/DURABILITY.md``).  Only
  planned when the run enables ``durability``, and sampled from a
  *separate* RNG stream so existing seeds' plans keep their exact
  event prefix;
* ``kill_primary`` / ``lag_replica`` — replication faults (see
  ``docs/REPLICATION.md``): a whole-process crash of a replicated
  primary at an absolute time, and a replica whose WAL-apply loop is
  suspended so it falls behind the shipped stream.  Only planned when
  the run hosts replicas, again from a separate RNG stream;
* ``shard_join`` / ``shard_retire`` / ``crash_during_migration`` —
  elastic-sharding faults (see ``docs/SHARDING.md``): a spare peer
  joins the consistent-hash ring (triggering live shard migrations), a
  member drains out of it, and a migration endpoint crashes at the
  ``copy`` or ``cutover`` barrier.  Only planned when the run enables
  ``sharding``, from the dedicated ``"shardplan"`` stream appended
  after every existing kind — old seeds keep their exact plan prefix.

Every event is a plain dataclass that round-trips through JSON, so a
plan can be minimized (``repro.chaos.shrink``) and replayed from a
repro file byte-for-byte.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.sim.rng import SeededRng, stable_seed

#: The fault name every planned service fault raises; chaos clusters
#: with ``handlers=True`` install retry policies keyed on it.
CHAOS_FAULT = "ChaosFault"

KINDS = (
    "service_fault",
    "disconnect",
    "disconnect_point",
    "message_chaos",
    "crash",
    "kill_primary",
    "lag_replica",
    "shard_join",
    "shard_retire",
    "crash_during_migration",
)


@dataclass(frozen=True)
class FaultEvent:
    """One planned failure.  Unused fields stay at their defaults."""

    kind: str
    peer: str = ""          # faulted / disconnected peer
    method: str = ""        # service method involved
    point: str = ""         # injection point
    time: float = 0.0       # absolute virtual time (kind=disconnect)
    trigger: str = ""       # executing peer (kind=disconnect_point)
    fault_name: str = CHAOS_FAULT
    drop_rate: float = 0.0  # kind=message_chaos
    delay_rate: float = 0.0
    max_delay: float = 0.0
    delay: float = 0.0      # restart delay (kind=crash)
    #: kind=crash with checkpointing: the crash lands mid-publish and
    #: tears the newest checkpoint file (recovery must fall back).
    tear_checkpoint: bool = False

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict with defaulted fields elided (stable, compact)."""
        out: Dict[str, object] = {}
        for key, value in asdict(self).items():
            if key == "kind" or value != FaultEvent.__dataclass_fields__[key].default:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        return cls(**data)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """An ordered fault schedule (frozen; shrink builds new plans)."""

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def without(self, index: int) -> "FaultPlan":
        """The same plan minus the event at *index* (for shrinking)."""
        return FaultPlan(
            tuple(e for i, e in enumerate(self.events) if i != index)
        )

    def to_dict(self) -> Dict[str, object]:
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        return cls(
            tuple(FaultEvent.from_dict(e) for e in data.get("events", []))
        )


class FaultPlanner:
    """Samples a deterministic fault schedule for one chaos run.

    All randomness comes from ``stable_seed(seed, "plan")`` so the plan
    depends only on the seed and the knobs — never on ``PYTHONHASHSEED``
    or wall-clock anything.
    """

    def __init__(
        self,
        seed: int,
        providers: Sequence[str],
        provider_methods: Dict[str, str],
        txns: int,
        fault_rate: float,
        horizon: float,
        crash_rate: float = 0.0,
        checkpoints: bool = False,
        replicas: int = 0,
        sharding: bool = False,
        spares: Sequence[str] = (),
    ):
        self.seed = seed
        self.providers = list(providers)
        self.provider_methods = dict(provider_methods)
        self.txns = txns
        self.fault_rate = fault_rate
        self.horizon = horizon
        self.crash_rate = crash_rate
        #: Sample mid-checkpoint crash variants (``tear_checkpoint``).
        #: Off by default: the extra draw would perturb the crashplan
        #: stream of existing checkpoint-less seeds.
        self.checkpoints = checkpoints
        #: Replicas per provider document in the cluster.  > 0 adds the
        #: replication fault kinds (``kill_primary``/``lag_replica``)
        #: from their own RNG stream, appended last — existing seeds'
        #: plans keep their exact event prefix.
        self.replicas = replicas
        #: Elastic sharding: plan ring joins/retires for the *spares*
        #: and migration-point crashes, from the ``"shardplan"`` stream
        #: appended after every existing kind — plans for existing
        #: seeds without sharding are byte-identical to before.
        self.sharding = sharding
        self.spares = list(spares)

    def plan(self) -> FaultPlan:
        rng = SeededRng(stable_seed(self.seed, "plan"))
        count = int(round(self.fault_rate * self.txns))
        events: List[FaultEvent] = []
        message_chaos_used = False
        for _ in range(count):
            roll = rng.random()
            if roll < 0.45 or not self.providers:
                events.append(self._service_fault(rng))
            elif roll < 0.70:
                events.append(self._disconnect(rng))
            elif roll < 0.90 or message_chaos_used:
                events.append(self._disconnect_point(rng))
            else:
                message_chaos_used = True
                events.append(self._message_chaos(rng))
        # Crash events come from their own stream, appended after the
        # main events: a plan for an existing seed with crash_rate=0
        # is byte-identical to what earlier versions produced.
        if self.crash_rate > 0 and self.providers:
            crash_rng = SeededRng(stable_seed(self.seed, "crashplan"))
            # Tear flags come from yet another stream: enabling
            # checkpoints must not perturb the peers/points/delays the
            # crashplan stream hands out for a given seed.
            tear_rng = (
                SeededRng(stable_seed(self.seed, "tearplan"))
                if self.checkpoints else None
            )
            for _ in range(int(round(self.crash_rate * self.txns))):
                events.append(self._crash(crash_rng, tear_rng))
        # Replication events come from yet another stream, appended after
        # the crash events for the same reason: a plan for an existing
        # seed with replicas=0 is byte-identical to before.
        if self.replicas > 0 and self.providers:
            repl_rng = SeededRng(stable_seed(self.seed, "replplan"))
            if self.crash_rate > 0:
                for _ in range(int(round(self.crash_rate * self.txns))):
                    events.append(self._kill_primary(repl_rng))
            for _ in range(int(round(self.fault_rate * self.txns))):
                events.append(self._lag_replica(repl_rng))
        # Sharding events come from the dedicated "shardplan" stream,
        # appended after everything else: plans for existing seeds
        # without sharding keep their exact event prefix.
        if self.sharding and self.providers:
            shard_rng = SeededRng(stable_seed(self.seed, "shardplan"))
            for spare in self.spares:
                join_time = round(shard_rng.uniform(0.05, 0.6 * self.horizon), 4)
                events.append(
                    FaultEvent(kind="shard_join", peer=spare, time=join_time)
                )
                if shard_rng.random() < 0.5:
                    retire_time = round(
                        shard_rng.uniform(join_time + 0.3, self.horizon + 0.3), 4
                    )
                    events.append(
                        FaultEvent(
                            kind="shard_retire", peer=spare, time=retire_time
                        )
                    )
            if len(self.providers) > 1 and shard_rng.random() < 0.5:
                peer = shard_rng.choice(self.providers)
                retire_time = round(
                    shard_rng.uniform(0.05, 0.6 * self.horizon), 4
                )
                events.append(
                    FaultEvent(kind="shard_retire", peer=peer, time=retire_time)
                )
            if self.crash_rate > 0:
                for _ in range(int(round(self.crash_rate * self.txns))):
                    events.append(self._crash_during_migration(shard_rng))
        return FaultPlan(tuple(events))

    # -- samplers ------------------------------------------------------

    def _service_fault(self, rng: SeededRng) -> FaultEvent:
        peer = rng.choice(self.providers)
        return FaultEvent(
            kind="service_fault",
            peer=peer,
            method=self.provider_methods[peer],
            point=rng.choice(["before_execute", "after_execute"]),
        )

    def _disconnect(self, rng: SeededRng) -> FaultEvent:
        peer = rng.choice(self.providers)
        time = round(rng.uniform(0.05, self.horizon), 4)
        return FaultEvent(kind="disconnect", peer=peer, time=time)

    def _disconnect_point(self, rng: SeededRng) -> FaultEvent:
        """§3.3(b): the trigger's *invoker* dies while it executes.

        The provider tree is a binary heap (``AP2``'s delegating parent
        is ``AP1``, …), so a non-root provider's parent edge is known
        statically.  With a single provider there is no parent edge to
        cut; fall back to a plain timed disconnect.
        """
        children = [p for p in self.providers if self._index(p) > 1]
        if not children:
            return self._disconnect(rng)
        trigger = rng.choice(children)
        parent = f"AP{self._index(trigger) // 2}"
        return FaultEvent(
            kind="disconnect_point",
            peer=parent,
            trigger=trigger,
            method=self.provider_methods[trigger],
            point=rng.choice(["after_local_work", "before_return"]),
        )

    def _crash(self, rng: SeededRng, tear_rng: SeededRng = None) -> FaultEvent:
        peer = rng.choice(self.providers)
        from repro.p2p.failure import POINTS

        point = rng.choice(list(POINTS))
        delay = round(rng.uniform(0.2, 1.0), 4)
        tear = bool(tear_rng is not None and tear_rng.random() < 0.25)
        return FaultEvent(
            kind="crash",
            peer=peer,
            method=self.provider_methods[peer],
            point=point,
            delay=delay,
            tear_checkpoint=tear,
        )

    def _kill_primary(self, rng: SeededRng) -> FaultEvent:
        """Crash a replicated primary at an absolute time.

        Unlike ``crash``, the kill is not tied to a protocol point: the
        primary dies whole-process at ``time`` (losing volatile state)
        and restarts ``delay`` later.  In-flight invocations against it
        fail over to the most-caught-up replica.
        """
        peer = rng.choice(self.providers)
        time = round(rng.uniform(0.05, self.horizon), 4)
        delay = round(rng.uniform(0.2, 1.0), 4)
        return FaultEvent(kind="kill_primary", peer=peer, time=time, delay=delay)

    def _lag_replica(self, rng: SeededRng) -> FaultEvent:
        """Suspend one replica's WAL apply loop for ``delay`` virtual time.

        ``peer`` names the *primary* whose replica set is lagged; the
        runner resolves it to a concrete replica holder at apply time
        (the planner does not know the placement map).  A lagged replica
        buffers shipped frames without applying or acking them — the
        shape that makes failover pick the *other*, caught-up replica.
        """
        peer = rng.choice(self.providers)
        time = round(rng.uniform(0.05, self.horizon), 4)
        delay = round(rng.uniform(0.5, 2.0), 4)
        return FaultEvent(kind="lag_replica", peer=peer, time=time, delay=delay)

    def _crash_during_migration(self, rng: SeededRng) -> FaultEvent:
        """Crash one endpoint of the next live shard migration.

        ``trigger`` names the role (``source``/``target``), ``point``
        the migration phase (``copy``/``cutover``).  The runner *arms*
        the fault on the shard coordinator; it fires when a migration
        reaches that phase (there is no way to know at plan time which
        peer will be migrating).  The victim restarts ``delay`` later
        and recovers from its WAL (``rejoin(mode=RejoinMode.IN_DOUBT)``).
        """
        role = rng.choice(["source", "target"])
        point = rng.choice(["copy", "cutover"])
        delay = round(rng.uniform(0.2, 1.0), 4)
        return FaultEvent(
            kind="crash_during_migration", trigger=role, point=point, delay=delay
        )

    def _message_chaos(self, rng: SeededRng) -> FaultEvent:
        return FaultEvent(
            kind="message_chaos",
            drop_rate=round(rng.uniform(0.1, 0.5), 4),
            delay_rate=round(rng.uniform(0.1, 0.5), 4),
            max_delay=round(rng.uniform(0.05, 0.5), 4),
        )

    @staticmethod
    def _index(provider: str) -> int:
        return int(provider[2:])
