"""Traffic census (non-gating, ~2 min, prints only): ``python tools/traffic_census.py``

Runs the non-test traffic in this process under one ``sys.setprofile`` hook: the
``BENCHMARK.json`` workloads (``benchmarks.e2e.child --smoke``), ``examples/*.py``, the
eight ``python -m repro ...`` figure/report commands, the non-pytest
``run: PYTHONPATH=src python ...`` lines of ``.github/workflows/ci.yml``, and ``pytest``
over the paper-claim benches (``bench_e*``, ``bench_a*``, ``bench_fig*``).  Prints per
item its exit status, the ``PROF`` counters on either side of each fork and the traffic
of the ``parse_path`` memo (hits, misses, size; emptied per item), then every
function under ``src/repro/`` none of it entered, with their line total — candidates
for ROADMAP item 8; check tests and docs/PAPER_MAP.md first.  Not seen: pool workers,
and ``bench_p1`` after its Part C installs its own hook.
"""

import contextlib
import json
import os
import re
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src" / "repro") + os.sep
FORK_COUNTERS = (  # prefixes
    "serialize_tree_", "entry_codec_", "query_index_", "query_tree_", "service_template_",
)
entered = set()


def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(SRC):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


CLI_COMMANDS = (  # the figure/report surface of the verify skill
    "atplist --query A", "atplist --query B --abort",
    "fig1 --fault AP5:S5 --handler AP3:S5",
    "fig2 --case b", "fig2 --case c", "fig2 --case d",
    "report --scenario fig1 --fault AP5:S5", "spheres --super-fraction 0.5",
)


def defined_functions():
    """``(file, first line) -> (qualified name, lines)`` of every def under src/repro/."""
    found = {}
    for path in Path(SRC).rglob("*.py"):
        pending = [compile(path.read_text(), str(path), "exec")]
        while pending:
            code = pending.pop()
            pending.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if not code.co_name.startswith("<"):  # <module>, <lambda>, <listcomp>
                last = max(line for _, _, line in code.co_lines() if line)
                found[str(path), code.co_firstlineno] = (
                    code.co_qualname, last - code.co_firstlineno + 1
                )
    return found


def traffic():
    """One ``python`` argument list per traffic item."""
    for workload in json.loads(Path("BENCHMARK.json").read_text())["workloads"]:
        yield f"-m benchmarks.e2e.child --workload {workload['name']} --seed 0 --smoke".split()
    yield from ([str(path)] for path in sorted(Path("examples").glob("*.py")))
    yield from (f"-m repro {command}".split() for command in CLI_COMMANDS)
    ci = Path(".github/workflows/ci.yml").read_text()
    for command in re.findall(r"run: PYTHONPATH=src python (?!-m pytest)(.+)", ci):
        yield command.split()
    # The paper-claim benches — every pytest-collected file under benchmarks/
    # outside e2e/; the other bench_*.py are scripts the CI lines above run.
    claims = sorted(
        str(path) for path in Path("benchmarks").glob("bench_*.py")
        if re.match(r"bench_(e\d|a\d|fig)", path.name)
    )
    yield ["-m", "pytest", *claims, "-q", "-p", "no:cacheprovider"]


def run(argv):
    """Run one item as ``python *argv`` would; returns its exit status."""
    sys.argv, start = (argv[1:], runpy.run_module) if argv[0] == "-m" else (argv, runpy.run_path)
    sys.setprofile(hook)  # per item: one may have replaced it (bench_p1 Part C)
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start(sys.argv[0], run_name="__main__")
    except SystemExit as stop:
        return stop.code or 0
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(ROOT)]
    for item in traffic():
        status = run(item)
        from repro.obs.prof import PROF  # only now: the hook has seen the import
        from repro.xmlstore.path import _parsed_path  # the parse_path memo
        forks = {n: v for n, v in sorted(PROF.counters.items()) if n.startswith(FORK_COUNTERS)}
        memo = _parsed_path.cache_info()
        print(f"exit {status}  {' '.join(item)}\n    {forks}\n    parse_path memo: "
              f"{memo.hits} hits, {memo.misses} misses, {memo.currsize} texts")
        PROF.counters.clear()  # not reset(): the hook is still armed
        _parsed_path.cache_clear()
    functions = defined_functions()
    idle = sorted(set(functions) - entered)
    print(
        f"{len(idle)} of {len(functions)} functions "
        f"({sum(functions[key][1] for key in idle)} lines) under src/repro/ never entered:"
    )
    for path, line in idle:
        print(f"  {os.path.relpath(path, ROOT)}:{line} {functions[path, line][0]}")
