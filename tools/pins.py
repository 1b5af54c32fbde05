#!/usr/bin/env python3
"""Pin the program's observable behaviour: one sha256 per artifact.

A refactor that claims "same behaviour" has to show byte-identical
output.  ``tools/pins.json`` records one digest per pinned artifact:

* ``chaos:<shape>:<seed>:summary`` / ``:violations`` — the chaos
  summary (plan, outcomes, violations, metrics) and the violation list
  of ROADMAP 1's four screen shapes at seeds 0..19 and 40 txns;
* ``rung:<name>:<seed>:summary`` / ``:violations`` — the same for the
  five ladder rungs of ``benchmarks.e2e.workloads`` at smoke size;
* ``cli:<command>`` — stdout and exit status of ``python -m repro
  <command>`` (plus the file a ``--json-out`` command writes) for the
  commands of the verify skill and of CI;
* ``example:<file>`` — stdout and exit status of each ``examples/*.py``,
  among them ``protocol_transcripts.py``, whose walk-throughs
  ``docs/PROTOCOLS.md`` quotes.

Every artifact is produced twice, by one child process under
``PYTHONHASHSEED=0`` and one under ``PYTHONHASHSEED=7``; each child runs
the grid on ``repro.sim.parallel``'s fork pool over every available
core, and the digests do not depend on the number of cores.  The check
fails when

* an artifact's digest differs from its pin (the behaviour moved),
* the two hash seeds disagree (the output depends on ``hash()``), or
* an artifact has no pin, or a pin no artifact.

``--update`` rewrites the manifest from this tree (only when the two
hash seeds agree).  A change that moves a pin says why in CHANGES.md.

Usage: python tools/pins.py [--check | --update]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Mapping, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(ROOT, "tools", "pins.json")
HASH_SEEDS = ("0", "7")
SCREEN_SEEDS = range(20)
SCREEN_TXNS = 40
RUNG_SEEDS = (0, 21)
RUNGS = ("mem_invoke", "wal_ckpt", "repl_ship", "shard_join", "shard_chaos")
#: ``python -m repro`` commands: the verify skill's surfaces (bad input
#: included) and the chaos commands CI runs.
CLI_COMMANDS = (
    "bench --smoke",
    "bench --smoke --seed 3 --workers 2",
    "bench --smoke --fault-rate 0.1",
    "chaos --sweep --seeds 3 --txns 8 --fault-rate 0.2 --crash-rate 0.3 --replicas 1 --sharding --shard-spares 1",
    "chaos --sweep --seeds 3 --txns 8 --fault-rate 0.2 --crash-rate 0.3 --replicas 2 --ship-batch 2",
    "chaos --sweep --seeds 3 --txns 8 --fault-rate 0.2 --crash-rate 0.3 --checkpoint-every 4 --wal-batch 4",
    "chaos --sweep --seeds 3 --txns 8 --fault-rate 0.2 --crash-rate 0.3",
    "chaos --sweep --seeds 3 --workers 2",
    "chaos --seed 7 --txns 20 --fault-rate 0.2",
    "chaos --seed 3 --txns 8",
    "chaos",
    "atplist --query A",
    "atplist --query B",
    "atplist --query A --abort",
    "atplist --query B --abort",
    "fig1",
    "fig1 --fault AP5:S5",
    "fig1 --fault AP5:S5 --handler AP3:S5",
    "fig2 --case b",
    "fig2 --case c",
    "fig2 --case d",
    "fig2 --case b --no-chaining",
    "fig2 --case c --no-chaining",
    "fig2 --case d --no-chaining",
    "report",
    "report --scenario fig2",
    "report --scenario fig1 --fault AP5:S5",
    "report --json-out report.json",
    "report --fault nonsense",
    "report --scenario nonsense",
    "spheres --super-fraction 0.5",
)


def _shapes() -> Dict[str, Dict[str, object]]:
    """ROADMAP 1's screen shapes: name → ``ChaosConfig`` keywords."""
    from benchmarks.e2e.workloads import _CHAOS, _LADDER_BASE, _REPL

    return {
        "minimal-handlers": {**_LADDER_BASE, "handlers": True, "fault_rate": 0.04},
        "failover": {**_LADDER_BASE, **_REPL, "fault_rate": 0.04, "crash_rate": 0.02},
        "shard_chaos": {**_LADDER_BASE, **_CHAOS},
        "shard_chaos+handlers": {**_LADDER_BASE, **_CHAOS, "handlers": True},
    }


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_digests(kind: str, result) -> Dict[str, str]:
    return {
        f"{kind}:summary": digest(json.dumps(result.summary, sort_keys=True).encode()),
        f"{kind}:violations": digest(
            json.dumps([v.to_dict() for v in result.violations], sort_keys=True).encode()
        ),
    }


def _process(argv: Sequence[str], files: Sequence[str] = ()) -> Tuple[bytes, Dict[str, bytes]]:
    """Run *argv* in a fresh directory: ``exit <status>`` + stdout, and
    the named files it wrote."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        written = {}
        for name in files:
            path = os.path.join(cwd, name)
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    written[name] = handle.read()
    return b"exit %d\n" % done.returncode + done.stdout, written


def cells() -> List[Tuple[str, ...]]:
    """The grid, slowest first; every cell is independent."""
    out: List[Tuple[str, ...]] = [("cli", command) for command in CLI_COMMANDS]
    out += [("rung", name, str(seed)) for name in RUNGS for seed in RUNG_SEEDS]
    out += [("chaos", shape, str(seed)) for shape in _shapes() for seed in SCREEN_SEEDS]
    out += [("example", name) for name in sorted(os.listdir(os.path.join(ROOT, "examples")))
            if name.endswith(".py")]
    return out


def run_cell(cell: Tuple[str, ...]) -> Dict[str, str]:
    """The digests of one cell's artifacts."""
    kind = cell[0]
    if kind in ("chaos", "rung"):
        from benchmarks.e2e.workloads import ladder_config
        from repro.chaos import ChaosConfig, run_chaos

        name, seed = cell[1], int(cell[2])
        if kind == "rung":
            config = ladder_config(name, seed, True)
        else:
            config = ChaosConfig(seed=seed, txns=SCREEN_TXNS, **_shapes()[name])
        return _run_digests(f"{kind}:{name}:{seed}", run_chaos(config))
    if kind == "cli":
        command = cell[1]
        files = [a for a in command.split() if a.endswith(".json")]
        out, written = _process([sys.executable, "-m", "repro", *command.split()], files)
        return {f"cli:{command}": digest(out + b"".join(written[f] for f in sorted(written)))}
    out, _ = _process([sys.executable, os.path.join(ROOT, "examples", cell[1])])
    return {f"example:{cell[1]}": digest(out)}


def emit() -> Dict[str, str]:
    """Every artifact's digest, produced in this process's hash seed."""
    sys.path[:0] = [ROOT, SRC]
    from repro.sim.parallel import parallel_map

    pins: Dict[str, str] = {}
    for part in parallel_map(run_cell, cells()):
        pins.update(part)
    return dict(sorted(pins.items()))


def produce() -> Dict[str, Dict[str, str]]:
    """Hash seed → that child's digests."""
    runs = {}
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--emit"],
            env=env, stdout=subprocess.PIPE, check=True,
        )
        runs[seed] = json.loads(done.stdout)
    return runs


def findings(pinned: Mapping[str, str], produced: Mapping[str, str]) -> List[str]:
    out = []
    for name in sorted(set(pinned) | set(produced)):
        if name not in produced:
            out.append(f"{name}: pinned but no longer produced")
        elif name not in pinned:
            out.append(f"{name}: produced but not pinned")
        elif pinned[name] != produced[name]:
            out.append(f"{name}: moved")
    return out


def disagreements(runs: Mapping[str, Mapping[str, str]]) -> List[str]:
    first, *rest = HASH_SEEDS
    return [
        f"{name}: differs between PYTHONHASHSEED={first} and {seed}"
        for seed in rest for name in sorted(set(runs[first]) | set(runs[seed]))
        if runs[first].get(name) != runs[seed].get(name)
    ]


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--update", action="store_true")
    mode.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        json.dump(emit(), sys.stdout)
        return 0
    runs = produce()
    problems = disagreements(runs)
    produced = runs[HASH_SEEDS[0]]
    if args.update and not problems:
        with open(MANIFEST, "w", encoding="utf-8") as handle:
            json.dump(produced, handle, indent=1, sort_keys=True)
            handle.write("\n")
    with open(MANIFEST, encoding="utf-8") as handle:
        problems += findings(json.load(handle), produced)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"pins: {len(produced)} artifacts, each identical to its pin "
          f"under PYTHONHASHSEED {' and '.join(HASH_SEEDS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
