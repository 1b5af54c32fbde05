"""C0 — the deterministic cost ruler: Python calls per commit, by module.

Wall-clock throughput on a shared box moves by tens of percent between
runs of the same tree, so a cost claim cannot rest on it alone.  This
script counts instead.  For each of the benchmark's six workloads (the
five ladder rungs of ``benchmarks.e2e.workloads`` and ``catalogue_occ``)
at seed 21 it reports, per committed transaction:

* Python calls in total and per module, read from ``cProfile``'s raw
  entries (builtins are the ``builtins`` module, generated dataclass and
  namedtuple methods ``generated``, every other file outside
  ``src/repro``, frozen modules such as ``posixpath`` included, is
  ``stdlib``).  ``pstats`` keys functions by label, so
  the thirty generated ``__init__``s, which all read
  ``<string>:2(__init__)``, would count as one;
* objects the cyclic collector freed (``gc.get_stats``), and the number
  of generation-2 collections during the run.

Each workload runs in a fresh interpreter under ``PYTHONHASHSEED=0``,
after one fixed warm-up (``mem_invoke`` at smoke size), so lazy imports
are paid before the measured run and no workload's count depends on
which ran before it.  The counts repeat exactly run to run and under any
hash seed.

``benchmarks/results/COST.json`` holds one record per commit, oldest
first.  ``--append`` measures both sizes and appends a record for the
checked-out commit; ``--check`` measures one size and compares it with
the last record: any count that moved by more than 2 % (and by more than
0.1 per commit) is named, and the exit status is 1.

Run:  python benchmarks/bench_c0_cost.py [--smoke] [--check | --append]
Out:  benchmarks/results/COST.json (with --append)
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COST_PATH = os.path.join(ROOT, "benchmarks", "results", "COST.json")
SEED = 21
WORKLOADS = ("mem_invoke", "wal_ckpt", "repl_ship", "shard_join", "shard_chaos", "catalogue_occ")
#: Relative band, and the absolute per-commit move below which a count
#: never fails the check (a module making 0.02 calls per commit may
#: double without mattering).
BAND = 0.02
FLOOR = 0.1
_REPRO = os.sep + os.path.join("src", "repro") + os.sep


def _module_of(filename: str) -> str:
    if filename == "~":
        return "builtins"
    if filename.startswith("<") and not filename.startswith("<frozen "):
        return "generated"
    at = filename.find(_REPRO)
    if at < 0:
        return "stdlib"
    dotted = filename[at + len(_REPRO):-len(".py")].replace(os.sep, ".")
    return dotted[: -len(".__init__")] if dotted.endswith(".__init__") else dotted


def measure(workload: str, smoke: bool) -> Dict[str, object]:
    """One workload in this process: warm up, then count one run."""
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from benchmarks.e2e.workloads import RUNNERS

    RUNNERS["mem_invoke"](SEED, True)
    gc.collect()
    before = gc.get_stats()
    profile = cProfile.Profile()
    outcome = profile.runcall(RUNNERS[workload], SEED, smoke)
    after = gc.get_stats()
    freed = sum(a["collected"] - b["collected"] for a, b in zip(after, before))
    gen2 = after[2]["collections"] - before[2]["collections"]
    commits = sum(1 for result in outcome.results if result.committed)
    per_module: Dict[str, int] = {}
    for entry in profile.getstats():
        module = _module_of(getattr(entry.code, "co_filename", "~"))
        per_module[module] = per_module.get(module, 0) + entry.callcount
    per = max(commits, 1)
    return {
        "commits": commits,
        "calls_per_commit": round(sum(per_module.values()) / per, 3),
        "gc_freed_per_commit": round(freed / per, 3),
        "gen2_collections": gen2,
        "modules": {m: round(n / per, 3) for m, n in sorted(per_module.items())},
    }


def measure_all(smoke: bool, workloads=WORKLOADS) -> Dict[str, Dict[str, object]]:
    """Every workload, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    table = {}
    for workload in workloads:
        argv = [sys.executable, os.path.abspath(__file__), "--child", workload]
        out = subprocess.run(
            argv + (["--smoke"] if smoke else []), env=env, cwd=ROOT,
            check=True, capture_output=True, text=True,
        ).stdout
        table[workload] = json.loads(out.strip().splitlines()[-1])
    return table


def _python() -> str:
    return ".".join(platform.python_version_tuple()[:2])


def _commit() -> str:
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()

    sha = git("rev-parse", "--short", "HEAD") or "unknown"
    return sha + ("+dirty" if git("status", "--porcelain", "--", "src") else "")


def load_records() -> List[dict]:
    if not os.path.exists(COST_PATH):
        return []
    with open(COST_PATH) as handle:
        return json.load(handle)["records"]


def compare(old: Dict[str, dict], new: Dict[str, dict]) -> List[str]:
    """What moved past the band, one line per count."""
    moved = []
    for workload in sorted(set(old) | set(new)):
        before, after = old.get(workload), new.get(workload)
        if before is None or after is None:
            moved.append(f"{workload}: only in the {'new' if before is None else 'old'} table")
            continue
        pairs = [("calls_per_commit", before["calls_per_commit"], after["calls_per_commit"]),
                 ("gc_freed_per_commit", before["gc_freed_per_commit"],
                  after["gc_freed_per_commit"])]
        for module in sorted(set(before["modules"]) | set(after["modules"])):
            pairs.append((module, before["modules"].get(module, 0.0),
                          after["modules"].get(module, 0.0)))
        for name, was, now in pairs:
            if abs(now - was) > max(BAND * abs(was), FLOOR):
                moved.append(f"{workload}: {name} {was} -> {now}")
        if before["gen2_collections"] != after["gen2_collections"]:
            moved.append(f"{workload}: gen2_collections "
                         f"{before['gen2_collections']} -> {after['gen2_collections']}")
    return moved


def render(table: Dict[str, dict], size: str) -> str:
    lines = [f"C0 cost per commit ({size}, seed {SEED}, Python {_python()})",
             f"{'workload':<14}{'commits':>8}{'calls':>11}{'gc freed':>10}{'gen2':>6}  top modules"]
    for workload, row in table.items():
        top = sorted(row["modules"].items(), key=lambda kv: -kv[1])[:4]
        lines.append(
            f"{workload:<14}{row['commits']:>8}{row['calls_per_commit']:>11.1f}"
            f"{row['gc_freed_per_commit']:>10.2f}{row['gen2_collections']:>6}  "
            + ", ".join(f"{m} {n:.0f}" for m, n in top)
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="smoke sizes (the CI step)")
    parser.add_argument("--check", action="store_true",
                        help="compare with the last record; exit 1 on a move past the band")
    parser.add_argument("--append", action="store_true",
                        help="measure both sizes and append a record for this commit")
    parser.add_argument("--child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child, args.smoke), sort_keys=True))
        return 0
    if args.append:
        sizes = {size: measure_all(size == "smoke") for size in ("smoke", "full")}
        for size, table in sizes.items():
            print(render(table, size))
        records = load_records()
        records.append({"commit": _commit(), "python": _python(), "seed": SEED,
                        "sizes": sizes})
        with open(COST_PATH, "w") as handle:
            json.dump({"records": records}, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"record appended: {COST_PATH}")
        return 0
    size = "smoke" if args.smoke else "full"
    table = measure_all(args.smoke)
    print(render(table, size))
    if not args.check:
        return 0
    records = load_records()
    if not records:
        print("FAILED: no record to compare with", file=sys.stderr)
        return 1
    last = records[-1]
    if last["python"] != _python():
        print(f"FAILED: the last record ({last['commit']}) was taken on Python "
              f"{last['python']}; counts are comparable only on the same version",
              file=sys.stderr)
        return 1
    moved = compare(last["sizes"][size], table)
    for line in moved:
        print(f"moved: {line}", file=sys.stderr)
    print(f"compared with {last['commit']}: {len(moved)} count(s) past the band")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
