"""E6 — §3.3 spheres of atomicity: guarantee rate vs super-peer fraction.

For each super-peer fraction, random transactions draw participant sets
from a 20-peer pool; the sphere analysis decides whether atomicity is
guaranteed.  A second pair of columns turns on peer-independent
compensation with super-peer replicas — the configuration the paper
suggests makes atomicity guaranteeable despite churn.

Shape being checked: the plain guarantee rate rises monotonically with
the super-peer fraction and hits 1.0 exactly at fraction 1.0 ("atomicity
may still be guaranteed … if all the involved peers are super peers");
replicas + peer-independence pins the rate at 1.0 throughout.  An
empirical column validates the analysis against simulated aborts.
"""

import pytest

from repro.sim.harness import ExperimentTable
from repro.sim.rng import SeededRng
from repro.sim.workload import generate_participant_sets
from repro.txn.spheres import analyze_sphere, sphere_guarantee_rate

from _util import publish

POOL = [f"AP{i}" for i in range(1, 21)]
FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def empirical_check(participants, super_peers, rng, trials=10):
    """Simulated ground truth: kill each non-super participant with p=0.5
    and see whether compensation could still complete (peer-dependent).

    Analysis says 'guaranteed' must imply every simulated outcome
    completes; we return the observed completion rate.
    """
    completed = 0
    for _ in range(trials):
        dead = {
            p for p in participants if p not in super_peers and rng.coin(0.5)
        }
        completed += int(not dead)
    return completed / trials


def run_point(fraction: float, seed: int = 17, transactions: int = 200):
    rng = SeededRng(seed)
    super_count = int(round(fraction * len(POOL)))
    super_peers = set(POOL[:super_count])
    txns = generate_participant_sets(rng, POOL, transactions)
    plain = sphere_guarantee_rate(txns, super_peers)
    upgraded = sphere_guarantee_rate(
        txns,
        super_peers,
        peer_independent=True,
        replicas_on_super_peers={p: True for p in POOL},
    )
    # Empirical validation: for analyzed-guaranteed transactions, the
    # simulated completion rate must be 1.0.
    guaranteed_txns = [
        t for t in txns if analyze_sphere(t, super_peers).guaranteed
    ]
    empirical = (
        sum(empirical_check(t, super_peers, rng) for t in guaranteed_txns)
        / len(guaranteed_txns)
        if guaranteed_txns
        else 1.0
    )
    return {
        "super_frac": fraction,
        "guaranteed": plain,
        "indep+replica": upgraded,
        "empirical_ok": empirical,
    }


def test_e6_spheres(benchmark):
    rows = [run_point(f) for f in FRACTIONS[:-1]]
    rows.append(benchmark(run_point, FRACTIONS[-1]))
    table = ExperimentTable(
        "E6: atomicity guarantee rate vs super-peer fraction (20-peer pool)",
        ["super_frac", "guaranteed", "indep+replica", "empirical_ok"],
    )
    for row in rows:
        table.add_row(**row)
    values = [row["guaranteed"] for row in rows]
    assert values == sorted(values)  # monotone in the super-peer fraction
    assert rows[0]["guaranteed"] == 0.0
    assert rows[-1]["guaranteed"] == 1.0  # all super peers → guaranteed
    assert all(row["indep+replica"] == 1.0 for row in rows)
    assert all(row["empirical_ok"] == 1.0 for row in rows)
    table.add_note("empirical_ok: simulated churn never breaks an analyzed guarantee")
    publish(table, "e6_spheres.txt")
