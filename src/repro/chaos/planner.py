"""The chaos harness's fault model: kinds, events, plans, the planner.

A :class:`FaultPlanner` samples a :class:`FaultPlan` — a list of
:class:`FaultEvent` — from the simulation RNG.  Each event kind is one
row of :data:`FAULT_KINDS` (its description and how it is scripted onto
a cluster); together they cover the failure dimensions of §3.2–§3.3:

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
  ``delay`` later and recovers from its durable WAL (``rejoin()``,
  see ``docs/DURABILITY.md``).  Only planned when the run enables
  ``durability``, and sampled from a *separate* RNG stream so existing
  seeds' plans keep their exact event prefix;
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

from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Callable, Dict, List, Sequence, Tuple

from repro.p2p.failure import POINTS, crash_and_restart
from repro.p2p.messages import DisconnectNotice, RedirectedResult
from repro.sim.rng import SeededRng, stable_seed

#: The fault name every planned service fault raises; chaos clusters
#: with ``handlers=True`` install retry policies keyed on it.
CHAOS_FAULT = "ChaosFault"


def typed_fields(cls, data: Dict[str, object], what: str) -> Dict[str, object]:
    """The entries of *data* that name a defaulted field of dataclass
    *cls*, each checked against the type of that default (an int is
    accepted for a float) — the decoder repro files go through.  A
    wrongly typed value is a ``ValueError`` naming the field; keys that
    name no field, and fields without a default, are the caller's."""
    values = {}
    for f in fields(cls):
        if f.name not in data or f.default is MISSING:
            continue
        value = data[f.name]
        kind = type(f.default)
        if kind is float and type(value) is int:
            value = float(value)
        if type(value) is not kind:
            raise ValueError(
                f"{what} field {f.name!r} must be {kind.__name__}, "
                f"got {value!r}"
            )
        values[f.name] = value
    return values


@dataclass(frozen=True)
class FaultEvent:
    """One planned failure of a :data:`FAULT_KINDS` kind (anything else
    is a ``ValueError``).  Unused fields stay at their defaults."""

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

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault event kind {self.kind!r}; use one of "
                f"{tuple(FAULT_KINDS)}"
            )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict with defaulted fields elided (stable, compact)."""
        out: Dict[str, object] = {}
        for key, value in asdict(self).items():
            if key == "kind" or value != FaultEvent.__dataclass_fields__[key].default:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        """Rebuild from :meth:`to_dict` output (one entry of a repro
        file's ``plan``).  Anything but an object with a known ``kind``,
        known field names and rightly typed values is a ``ValueError``
        — before any cluster is built."""
        if not isinstance(data, dict):
            raise ValueError(f"a fault event is a JSON object, got {data!r}")
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown fault event field(s) {unknown}")
        return cls(kind=data.get("kind"), **typed_fields(cls, data, "fault event"))


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
        events = data.get("events", [])
        if not isinstance(events, list):
            raise ValueError(f"'events' must be a list, got {events!r}")
        return cls(tuple(FaultEvent.from_dict(e) for e in events))


# ---------------------------------------------------------------------------
# the kind table: what a fault kind is, in one row
# ---------------------------------------------------------------------------

def _at_event_time(action: Callable) -> Callable:
    """A script that runs ``action(cluster, config, event)`` at
    ``event.time`` (virtual) instead of at apply time."""
    def script(cluster, config, event: FaultEvent) -> None:
        cluster.network.events.schedule_at(
            event.time, lambda: action(cluster, config, event)
        )
    return script


def _fire_kill_primary(cluster, config, event: FaultEvent) -> None:
    """Crash the planned peer — under sharding, whoever is primary for
    its shard *now* (migrations may have moved it) — restarting
    in-doubt ``delay`` later."""
    victim = event.peer
    if config.sharding:
        victim = cluster.network.directory.primary(f"D{victim[2:]}") or victim
    crash_and_restart(cluster.network, victim, event.delay)


def _fire_lag_replica(cluster, config, event: FaultEvent) -> None:
    """Lag the smallest-id live non-primary holder of the planned
    primary's document at this moment — deterministic because holder
    lists and virtual time are."""
    holders = cluster.network.directory.document_holders(f"D{event.peer[2:]}")
    candidates = sorted(h for h in holders[1:] if cluster.network.is_alive(h))
    if candidates:
        cluster.replication.lag_replica(candidates[0], duration=event.delay)


def _install_message_chaos(cluster, config, event: FaultEvent) -> None:
    """Drop/delay the §3.3 best-effort messages via the network hook
    (a later ``message_chaos`` event replaces an earlier one's hook).

    Decision messages (commit/abort/compensation requests) stay
    reliable: the protocol's atomicity argument assumes they eventually
    arrive, and settlement models exactly that eventuality.
    """
    rng = SeededRng(stable_seed(config.seed, "nethook"))

    def hook(source_id: str, target_id: str, message: object):
        if not isinstance(message, (DisconnectNotice, RedirectedResult)):
            return None
        roll = rng.random()
        if roll < event.drop_rate:
            return "drop"
        if roll < event.drop_rate + event.delay_rate:
            return round(rng.uniform(0.01, event.max_delay), 4)
        return None

    cluster.network.set_message_hook(hook)


#: Every fault kind: its :func:`~repro.chaos.runner.describe_plan` line
#: (a format over the event's fields) and how
#: :func:`~repro.chaos.runner.apply_plan` scripts one event onto the
#: cluster — ``script(cluster, config, event)``.  A :class:`FaultEvent`
#: of any other kind cannot be built.
FAULT_KINDS: Dict[str, Tuple[str, Callable]] = {
    "service_fault": (
        "service_fault {method}@{peer} [{point}]",
        lambda cluster, config, e: cluster.injector.fault_service(
            e.peer, e.method, e.fault_name, times=1, point=e.point
        ),
    ),
    "disconnect": (
        "disconnect {peer} @t={time}",
        lambda cluster, config, e: cluster.injector.disconnect_at(e.peer, e.time),
    ),
    "disconnect_point": (
        "disconnect {peer} while {trigger} runs {method} [{point}]",
        lambda cluster, config, e: cluster.injector.disconnect_peer_during(
            e.peer, e.trigger, e.method, e.point
        ),
    ),
    "message_chaos": (
        "message_chaos drop={drop_rate} delay={delay_rate} max_delay={max_delay}",
        _install_message_chaos,
    ),
    "crash": (
        "crash {peer} during {method} [{point}] restart after {delay}",
        lambda cluster, config, e: cluster.injector.crash_peer_during(
            e.peer, e.method, e.point,
            restart_delay=e.delay, tear_checkpoint=e.tear_checkpoint,
        ),
    ),
    "kill_primary": (
        "kill_primary {peer} @t={time} restart after {delay}",
        _at_event_time(_fire_kill_primary),
    ),
    "lag_replica": (
        "lag_replica of {peer} @t={time} for {delay}",
        _at_event_time(_fire_lag_replica),
    ),
    "shard_join": (
        "shard_join {peer} @t={time}",
        _at_event_time(
            lambda cluster, config, e: cluster.shard_coordinator.add_peer(e.peer)
        ),
    ),
    "shard_retire": (
        "shard_retire {peer} @t={time}",
        _at_event_time(
            lambda cluster, config, e: cluster.shard_coordinator.retire_peer(e.peer)
        ),
    ),
    "crash_during_migration": (
        "crash_during_migration {trigger} at {point} restart after {delay}",
        lambda cluster, config, e: cluster.shard_coordinator.arm_crash(
            e.trigger, e.point, e.delay
        ),
    ),
}


class FaultPlanner:
    """Samples a deterministic fault schedule for one chaos run.

    *config* is the :class:`~repro.chaos.runner.ChaosConfig` being
    planned for (seed, rates, horizon and which fault families the run
    enables); *providers* are the peers faults may target and *spares*
    the ring joiners of a sharded run.  All randomness comes from
    ``stable_seed(config.seed, "plan")`` and its sibling streams, so the
    plan depends only on the seed and the knobs — never on
    ``PYTHONHASHSEED`` or wall-clock anything.
    """

    def __init__(self, config, providers: Sequence[str], spares: Sequence[str] = ()):
        self.config = config
        self.providers = list(providers)
        self.spares = list(spares)

    def plan(self) -> FaultPlan:
        config, seed = self.config, self.config.seed
        horizon = config.horizon
        crashes = int(round(config.crash_rate * config.txns))
        rng = SeededRng(stable_seed(seed, "plan"))
        count = int(round(config.fault_rate * config.txns))
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
        if config.crash_rate > 0 and self.providers:
            crash_rng = SeededRng(stable_seed(seed, "crashplan"))
            # Tear flags come from yet another stream: enabling
            # checkpoints must not perturb the peers/points/delays the
            # crashplan stream hands out for a given seed.
            tear_rng = (
                SeededRng(stable_seed(seed, "tearplan"))
                if config.checkpoint_every > 0 else None
            )
            for _ in range(crashes):
                events.append(self._crash(crash_rng, tear_rng))
        # Replication events come from yet another stream, appended after
        # the crash events for the same reason: a plan for an existing
        # seed with replicas=0 is byte-identical to before.
        if config.replicas > 0 and self.providers:
            repl_rng = SeededRng(stable_seed(seed, "replplan"))
            if config.crash_rate > 0:
                for _ in range(crashes):
                    events.append(self._kill_primary(repl_rng))
            for _ in range(count):
                events.append(self._lag_replica(repl_rng))
        # Sharding events come from the dedicated "shardplan" stream,
        # appended after everything else: plans for existing seeds
        # without sharding keep their exact event prefix.
        if config.sharding and self.providers:
            shard_rng = SeededRng(stable_seed(seed, "shardplan"))
            for spare in self.spares:
                join_time = round(shard_rng.uniform(0.05, 0.6 * horizon), 4)
                events.append(
                    FaultEvent(kind="shard_join", peer=spare, time=join_time)
                )
                if shard_rng.random() < 0.5:
                    retire_time = round(
                        shard_rng.uniform(join_time + 0.3, horizon + 0.3), 4
                    )
                    events.append(
                        FaultEvent(
                            kind="shard_retire", peer=spare, time=retire_time
                        )
                    )
            if len(self.providers) > 1 and shard_rng.random() < 0.5:
                peer = shard_rng.choice(self.providers)
                retire_time = round(
                    shard_rng.uniform(0.05, 0.6 * horizon), 4
                )
                events.append(
                    FaultEvent(kind="shard_retire", peer=peer, time=retire_time)
                )
            if config.crash_rate > 0:
                for _ in range(crashes):
                    events.append(self._crash_during_migration(shard_rng))
        return FaultPlan(tuple(events))

    # -- samplers ------------------------------------------------------

    def _service_fault(self, rng: SeededRng) -> FaultEvent:
        peer = rng.choice(self.providers)
        return FaultEvent(
            kind="service_fault",
            peer=peer,
            method=f"S{peer[2:]}",
            point=rng.choice(["before_execute", "after_execute"]),
        )

    def _disconnect(self, rng: SeededRng) -> FaultEvent:
        peer = rng.choice(self.providers)
        time = round(rng.uniform(0.05, self.config.horizon), 4)
        return FaultEvent(kind="disconnect", peer=peer, time=time)

    def _disconnect_point(self, rng: SeededRng) -> FaultEvent:
        """§3.3(b): the trigger's *invoker* dies while it executes.

        The provider tree is a binary heap (``AP2``'s delegating parent
        is ``AP1``, …), so a non-root provider's parent edge is known
        statically.  With a single provider there is no parent edge to
        cut; fall back to a plain timed disconnect.
        """
        children = [p for p in self.providers if int(p[2:]) > 1]
        if not children:
            return self._disconnect(rng)
        trigger = rng.choice(children)
        parent = f"AP{int(trigger[2:]) // 2}"
        return FaultEvent(
            kind="disconnect_point",
            peer=parent,
            trigger=trigger,
            method=f"S{trigger[2:]}",
            point=rng.choice(["after_local_work", "before_return"]),
        )

    def _crash(self, rng: SeededRng, tear_rng: SeededRng = None) -> FaultEvent:
        peer = rng.choice(self.providers)
        point = rng.choice(list(POINTS))
        delay = round(rng.uniform(0.2, 1.0), 4)
        tear = bool(tear_rng is not None and tear_rng.random() < 0.25)
        return FaultEvent(
            kind="crash",
            peer=peer,
            method=f"S{peer[2:]}",
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
        time = round(rng.uniform(0.05, self.config.horizon), 4)
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
        time = round(rng.uniform(0.05, self.config.horizon), 4)
        delay = round(rng.uniform(0.5, 2.0), 4)
        return FaultEvent(kind="lag_replica", peer=peer, time=time, delay=delay)

    def _crash_during_migration(self, rng: SeededRng) -> FaultEvent:
        """Crash one endpoint of the next live shard migration.

        ``trigger`` names the role (``source``/``target``), ``point``
        the migration phase (``copy``/``cutover``).  The runner *arms*
        the fault on the shard coordinator; it fires when a migration
        reaches that phase (there is no way to know at plan time which
        peer will be migrating).  The victim restarts ``delay`` later
        and recovers from its WAL (``rejoin()``).
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
