"""The six workloads.  Imported only by the child process (it needs
``repro`` on ``sys.path``); the parent reads names and reasons from
``BENCHMARK.json``.

All load generation happens before ``TransactionScheduler.run`` is
entered: the program receives finished specs whose operations are XML
text or :class:`InvokeOp` values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.chaos import ChaosConfig, run_chaos
from repro.sim.rng import SeededRng, stable_seed
from repro.sim.scheduler import TransactionScheduler, TxnResult, TxnSpec
from repro.sim.throughput import build_throughput_cluster


@dataclass
class Outcome:
    """What one run produced, before any timing is attached."""

    results: List[TxnResult]
    #: One entry per oracle violation / document-verification mismatch.
    violations: List[str]


# ---------------------------------------------------------------------------
# the chaos-driven ladder: each rung adds one feature to the one above
# ---------------------------------------------------------------------------

#: Shared by every rung.  The arrival rate is in *virtual* txn/s and
#: sits at a third of the slowest rung's virtual capacity (invocations
#: advance the one simulation clock, so ``repl_ship`` tops out near
#: 6.4 txn/s): an open loop past capacity only measures its own growing
#: backlog, and close to it the latency percentiles swing with the seed.
_LADDER_BASE = dict(
    providers=8, origins=2, concurrency=4, ops_per_txn=3,
    invoke_fraction=0.6, arrival_rate=2.0, op_gap=0.01,
    fault_rate=0.0, handlers=False,
)
_WAL = dict(durability=True, checkpoint_every=64, wal_batch=8)
_REPL = dict(_WAL, replicas=2, ship_batch=1)
_SHARD = dict(_REPL, sharding=True, shard_spares=2)
_CHAOS = dict(_SHARD, fault_rate=0.04, crash_rate=0.02)

#: name -> (config overrides, txns, smoke txns)
LADDER: Dict[str, Tuple[Dict[str, object], int, int]] = {
    "mem_invoke": ({}, 750, 60),
    "wal_ckpt": (_WAL, 620, 60),
    "repl_ship": (_REPL, 215, 40),
    "shard_join": (_SHARD, 220, 40),
    "shard_chaos": (_CHAOS, 220, 40),
}

#: ``shard_chaos`` fault-schedule seeds that are *not* used, screened on
#: the commit that added the benchmark over seeds 0..199 (README, "known-
#: dirty seeds").  The first two groups trip known program bugs (oracle
#: violations at the full, respectively the smoke, size); they are
#: evidence for ROADMAP item 4 and are neither fixed nor hidden here, but
#: a benchmark run must be one on which no operation fails.  The third
#: group is clean but kills a provider for most of the run, so under
#: ``handlers=False`` over 15 % of transactions abort and the run
#: measures how fast transactions fail rather than recovery.
_DIRTY_FULL = {28, 29, 35, 43, 68, 73, 77, 80, 82, 91, 107, 113, 115, 119, 128, 133}
_DIRTY_SMOKE = {
    1, 4, 6, 8, 10, 21, 24, 28, 35, 41, 55, 64, 68, 73, 80, 82, 84, 86, 87, 109,
    115, 134, 137, 143, 144, 154, 159, 163, 165, 186, 196,
}
_MOSTLY_DEAD = {8, 37, 48, 65, 72, 91, 93, 95, 118, 121, 132, 137, 154, 161, 176, 180, 186}
#: The schedules ``shard_chaos`` draws from: sub-seed ``s`` runs entry
#: ``s`` modulo the pool, so any driver seed lands on a screened
#: schedule.  147 entries: coprime with the harness's 64 sub-seeds per
#: seed, so neighbouring seeds do not share segments.  A later change
#: that dirties a pool entry fails the run, as it should.
SHARD_CHAOS_SEEDS: Tuple[int, ...] = tuple(
    s for s in range(200) if s not in _DIRTY_FULL | _DIRTY_SMOKE | _MOSTLY_DEAD
)[:147]


def ladder_config(name: str, seed: int, smoke: bool) -> ChaosConfig:
    overrides, txns, smoke_txns = LADDER[name]
    if name == "shard_chaos":
        seed = SHARD_CHAOS_SEEDS[seed % len(SHARD_CHAOS_SEEDS)]
    return ChaosConfig(
        seed=seed, txns=smoke_txns if smoke else txns,
        **{**_LADDER_BASE, **overrides},
    )


def run_ladder(name: str, seed: int, smoke: bool) -> Outcome:
    result = run_chaos(ladder_config(name, seed, smoke))
    return Outcome(result.results, [v.kind for v in result.violations])


# ---------------------------------------------------------------------------
# catalogue_occ: closed-loop reads beside writes under OCC
# ---------------------------------------------------------------------------

_WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot")
_FIELDS = ("title", "author", "year", "price", "publisher")

CATALOGUE_CLIENTS = 4
CATALOGUE_TXN_LENGTH = 4
CATALOGUE_THINK_TIME = 0.02
CATALOGUE_MAX_ATTEMPTS = 6
CATALOGUE_HOT_FRACTION = 0.10
#: (items per catalogue, txns per client), full and smoke.
CATALOGUE_SIZE = (600, 50)
CATALOGUE_SMOKE_SIZE = (60, 10)


def _scan_catalogue(document) -> List[Tuple[str, str, List[str]]]:
    """``(category, sku, field names)`` per item, read once at set-up."""
    items = []
    for item in document.root.child_elements():
        fields = [c.name.local for c in item.child_elements() if c.name.local in _FIELDS]
        items.append((item.name.local, item.first_child("sku").text_content(), fields))
    return items


def _catalogue_operation(
    rng: SeededRng, doc_name: str, items: Sequence[Tuple[str, str, List[str]]], tag: str
) -> str:
    """One sku-selective action as XML text.  Inserts carry ``by=tag`` so
    verification can count each one; nothing is ever deleted, so an
    operation generated against the initial catalogue stays valid."""
    if rng.coin(CATALOGUE_HOT_FRACTION):
        category, sku, _fields = items[0]
        return (
            f'<action type="insert"><data><hit by="{tag}"/></data>'
            f"<location>Select i from i in {doc_name}//{category}"
            f" where i/sku = {sku};</location></action>"
        )
    category, sku, fields = rng.choice(items)
    field_name = rng.choice(sorted(fields))
    where = f"{doc_name}//{category} where i/sku = {sku}"
    roll = rng.random()
    if roll < 0.60:
        return (
            f'<action type="query"><location>Select i/{field_name} from i in '
            f"{where};</location></action>"
        )
    word = rng.choice(_WORDS)
    if roll < 0.85:
        return (
            f'<action type="replace"><data><{field_name}>{word}</{field_name}></data>'
            f"<location>Select i/{field_name} from i in {where};</location></action>"
        )
    return (
        f'<action type="insert"><data><note by="{tag}">{word}</note></data>'
        f"<location>Select i from i in {where};</location></action>"
    )


def _verify_catalogue(peers, results: Sequence[TxnResult], inserted: Dict[str, List[str]]) -> List[str]:
    """Every committed transaction's inserts are present exactly once and
    no aborted attempt left one behind."""
    found: Counter = Counter()
    for peer in peers.values():
        for axml_document in peer.documents.values():
            for element in axml_document.document.iter_elements():
                if element.name.local in ("note", "hit"):
                    found[element.attributes.get("by", "")] += 1
    violations = []
    for result in results:
        want = 1 if result.committed else 0
        for tag in inserted[result.label]:
            if found.pop(tag, 0) != want:
                violations.append(f"insert_count:{tag}")
    violations.extend(f"insert_unexpected:{tag}" for tag in sorted(found))
    return violations


def run_catalogue(seed: int, smoke: bool) -> Outcome:
    items_per_peer, txns_per_client = CATALOGUE_SMOKE_SIZE if smoke else CATALOGUE_SIZE
    network, peers = build_throughput_cluster(seed, peer_count=2, items=items_per_peer)
    peer_ids = sorted(peers)
    rng = SeededRng(stable_seed(seed, "e2e:catalogue"))
    specs: Dict[Tuple[int, int], TxnSpec] = {}
    inserted: Dict[str, List[str]] = {}
    for client in range(CATALOGUE_CLIENTS):
        origin = peer_ids[client % len(peer_ids)]
        axml_document = next(iter(peers[origin].documents.values()))
        items = _scan_catalogue(axml_document.document)
        for index in range(txns_per_client):
            label = f"c{client}t{index}"
            operations = [
                _catalogue_operation(rng, axml_document.name, items, f"{label}.{k}")
                for k in range(CATALOGUE_TXN_LENGTH)
            ]
            inserted[label] = [
                f"{label}.{k}" for k, op in enumerate(operations) if 'type="insert"' in op
            ]
            specs[client, index] = TxnSpec(label, origin, tuple(operations))
    scheduler = TransactionScheduler(
        network, max_inflight=CATALOGUE_CLIENTS, max_attempts=CATALOGUE_MAX_ATTEMPTS,
        seed=stable_seed(seed, "e2e:sched"),
    )
    scheduler.run_closed_loop(
        CATALOGUE_CLIENTS, txns_per_client,
        lambda client, index: specs[client, index], CATALOGUE_THINK_TIME,
    )
    results = scheduler.run()
    return Outcome(results, _verify_catalogue(peers, results, inserted))


RUNNERS: Dict[str, Callable[[int, bool], Outcome]] = {
    **{name: (lambda seed, smoke, _n=name: run_ladder(_n, seed, smoke)) for name in LADDER},
    "catalogue_occ": run_catalogue,
}
