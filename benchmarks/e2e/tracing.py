"""Outside-in layer tracing: wrap the public entry points of each
``repro.*`` layer from the harness side, without editing the program.

Every boundary gets a wrapper that opens a span on a shared stack.  A
span's *self time* is its duration minus the time its child spans
covered, so the self times of all layers plus the driver's own (the
root span: harness + unwrapped program code between boundaries) sum to
the traced wall time by construction; :meth:`Tracer.report` still checks
the sum, which catches an unbalanced stack (a wrapper that did not
unwind) rather than arithmetic.

Spans are aggregated per boundary as they close instead of being kept
one by one: a run closes several million of them, and only self time
and call counts are reported.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from functools import wraps
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer -> [(module, owner class or "" for a module-level function,
#: attribute names)].  Layer names are the program's module names.
BOUNDARIES: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "sim.kernel": [("repro.sim.kernel", "EventQueue", ("step",))],
    "sim.scheduler": [("repro.sim.scheduler", "TransactionScheduler", ("run",))],
    "p2p.peer": [(
        "repro.p2p.peer", "AXMLPeer",
        ("invoke", "submit", "commit", "abort", "handle_invoke", "on_notify",
         "crash", "rejoin", "resolve_in_doubt"),
    )],
    "p2p.network": [("repro.p2p.network", "SimNetwork", ("rpc", "notify", "ping"))],
    "p2p.chain": [(
        "repro.p2p.chain", "PeerChain",
        ("from_text", "to_text", "copy", "merge", "substitute"),
    )],
    "p2p.replication": [(
        "repro.p2p.replication", "ReplicationManager",
        ("on_committed", "on_ship", "on_ack", "select_failover",
         "replicate_document", "settle"),
    )],
    "p2p.sharding": [
        ("repro.p2p.sharding", "PlacementDirectory", ("route_service",)),
        ("repro.p2p.sharding", "ShardRing", ("lookup",)),
        ("repro.p2p.sharding", "ShardCoordinator",
         ("add_peer", "retire_peer", "start_migration", "settle")),
    ],
    "services": [("repro.services.service", "Service", ("execute",))],
    "txn.manager": [(
        "repro.txn.manager", "TransactionManager",
        ("execute", "record_service_changes", "commit_local", "abort_local",
         "apply_compensation_xml"),
    )],
    "txn.wal": [("repro.txn.wal", "OperationLog", ("append", "truncate"))],
    "txn.wal.codec": [("repro.txn.wal", "", ("entry_to_xml", "entry_from_xml"))],
    "txn.durable_wal": [(
        "repro.txn.durable_wal", "DurableWal",
        ("on_append", "on_truncate", "flush", "reload"),
    )],
    "txn.checkpoint": [
        ("repro.txn.durable_wal", "DurableWal", ("take_checkpoint",)),
        ("repro.txn.checkpoint", "CheckpointStore", ("write", "load_latest")),
    ],
    "txn.occ": [(
        "repro.txn.occ", "OptimisticValidator",
        ("track_reads", "track_writes", "validate_and_commit"),
    )],
    "txn.compensation": [
        ("repro.txn.compensation", "", ("compensate_records",)),
        ("repro.txn.compensation", "CompensationPlan", ("execute",)),
    ],
    "query.parser": [("repro.query.parser", "", ("parse_action", "parse_select"))],
    "query.evaluate": [("repro.query.evaluate", "", ("evaluate_select",))],
    "query.update": [("repro.query.update", "", ("apply_action",))],
    "xmlstore.parser": [
        ("repro.xmlstore.parser", "", ("parse_document", "parse_fragment")),
    ],
    "xmlstore.serializer": [
        ("repro.xmlstore.serializer", "", ("serialize", "canonical_digest")),
        ("repro.xmlstore.nodes", "Document", ("clone_tree", "restore_from")),
    ],
    "xmlstore.path": [
        ("repro.xmlstore.path", "PathExpr", ("evaluate",)),
        ("repro.xmlstore.path", "", ("parse_path",)),
    ],
    "xmlstore.index": [
        ("repro.xmlstore.index", "StructuralIndex", ("order_ranks", "postings")),
    ],
    "axml.materialize": [
        ("repro.axml.materialize", "MaterializationEngine", ("materialize_for_query",)),
    ],
    "chaos.oracle": [("repro.chaos.oracle", "AtomicityOracle", ("check",))],
}

LAYERS: Tuple[str, ...] = tuple(BOUNDARIES)

#: The boundary whose individual span durations are kept: the wall time
#: of one fired event is the stall everything queued behind it sees.
STEP_BOUNDARY = "sim.kernel:EventQueue.step"


class Tracer:
    """Installs, accounts and removes the boundary wrappers."""

    def __init__(self) -> None:
        self.boundary_names: List[str] = []
        self.boundary_layers: List[str] = []
        self._self_s: List[float] = []
        self._calls: List[int] = []
        #: One child-time accumulator per open span; slot 0 is the root
        #: (driver) span, which never closes.
        self._stack: List[float] = [0.0]
        self.step_durations: List[float] = []
        #: (namespace object, attribute, original value) in install order.
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, groups in BOUNDARIES.items():
            for module_name, owner_name, attributes in groups:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
                for attribute in attributes:
                    label = f"{layer}:{owner_name + '.' if owner_name else ''}{attribute}"
                    self._install_one(layer, label, owner, attribute, bool(owner_name))

    def _install_one(
        self, layer: str, label: str, owner: Any, attribute: str, on_class: bool
    ) -> None:
        raw = vars(owner)[attribute]
        function = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if inspect.isgeneratorfunction(function) or inspect.iscoroutinefunction(function):
            # A span around a generator would close at creation, before
            # any of its work ran.
            raise TypeError(f"{label} is a generator/coroutine; cannot span it")
        slot = len(self.boundary_names)
        self.boundary_names.append(label)
        self.boundary_layers.append(layer)
        self._self_s.append(0.0)
        self._calls.append(0)
        samples = self.step_durations if label == STEP_BOUNDARY else None
        wrapper = self._make_wrapper(function, slot, samples)
        if on_class:
            replacement = type(raw)(wrapper) if function is not raw else wrapper
            self._patch(owner, attribute, raw, replacement)
            return
        # Callers bind module-level functions with ``from x import f``, so
        # every repro module global that *is* the function gets the wrapper.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._patch(module, key, raw, wrapper)

    def _patch(self, namespace: Any, key: str, original: Any, replacement: Any) -> None:
        self._patches.append((namespace, key, original))
        setattr(namespace, key, replacement)

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            setattr(namespace, key, original)
        self._patches.clear()

    # -- spans --------------------------------------------------------------

    def _make_wrapper(
        self, function: Callable[..., Any], slot: int, samples: Optional[List[float]]
    ) -> Callable[..., Any]:
        stack, self_s, calls = self._stack, self._self_s, self._calls
        clock = time.perf_counter

        @wraps(function)
        def span(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                # Runs on return and on an exception unwinding through
                # the span alike, so the stack stays balanced.
                elapsed = clock() - start
                self_s[slot] += elapsed - stack.pop()
                calls[slot] += 1
                stack[-1] += elapsed
                if samples is not None:
                    samples.append(elapsed)

        return span

    def reset(self) -> None:
        """Forget everything recorded so far (set-up is not attributed).

        Only legal between spans: an open span would pop the fresh root.
        """
        if len(self._stack) != 1:
            raise RuntimeError("tracer reset inside an open span")
        for slot in range(len(self._self_s)):
            self._self_s[slot] = 0.0
            self._calls[slot] = 0
        # In place: the wrappers close over this list object.
        self._stack[:] = [0.0]
        del self.step_durations[:]

    # -- results ------------------------------------------------------------

    def report(self, wall_s: float) -> Dict[str, Any]:
        """Per-layer self time and calls over a window of *wall_s* seconds
        that started at :meth:`reset` and ends now."""
        if len(self._stack) != 1:
            raise RuntimeError(f"{len(self._stack) - 1} spans still open at report")
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for slot, layer in enumerate(self.boundary_layers):
            layers[layer]["self_s"] += self._self_s[slot]
            layers[layer]["calls"] += self._calls[slot]
        driver_self_s = wall_s - self._stack[0]
        attributed = driver_self_s + sum(v["self_s"] for v in layers.values())
        return {
            "layers": layers,
            "boundary_calls": dict(zip(self.boundary_names, self._calls)),
            "driver_self_s": driver_self_s,
            "attributed_s": attributed,
            "step_durations": sorted(self.step_durations),
        }
