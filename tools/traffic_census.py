"""Traffic census, idle-code ratchet and knob ratchet (ROADMAP item 22, ~2 min):
``python tools/traffic_census.py [--check | --update]``

Runs the non-test traffic in this process under one ``sys.setprofile`` hook: the
``BENCHMARK.json`` workloads (``benchmarks.e2e.child --smoke``), ``examples/*.py``, the
``python -m repro ...`` commands of ``CLI_COMMANDS``, the non-pytest
``run: PYTHONPATH=src python ...`` lines of ``.github/workflows/ci.yml``, and ``pytest``
over the paper-claim benches (``bench_e*``, ``bench_a*``, ``bench_fig*``).  Prints per
item its exit status, the ``PROF`` counters on either side of each fork and the traffic
of the ``parse_path`` memo (hits, misses, size; emptied per item), then every
function under ``src/repro/`` none of it entered, with their line total, then every
defaulted parameter of an entered function that no call bound to a value other than its
default (a knob the traffic never moves), with its call count, and last every defaulted
parameter that no call left at its default (a default only tests rely on; report
only).  Not seen:
pool workers.  ``bench_p1``'s counting hooks pass each event on to the hook they
found and put it back after, so its parts are seen (the census re-arms its hook per
item and never wraps ``sys.setprofile``, so no item's own call counts move).

``tools/idle_ratchet.json`` maps every idle function, keyed ``path::qualname`` (a
line shift is no finding), to one reason of ``REASONS``.  Dunders and the members of
``typing.Protocol`` classes are exempt by rule.  ``tools/knob_ratchet.json`` maps every
never-moved default, keyed ``path::qualname(parameter)``, to one reason of
``KNOB_REASONS``.  ``--check`` exits 1 on any finding in either list (an item's exit
status is printed, not checked: the CI jobs that run it gate it):

* an idle function or never-moved default that is not listed (give it traffic,
  delete it, or list it),
* a listed one that was entered or moved, or no longer exists (bank it: ``--update``
  rewrites both lists and only ever removes entries), or
* an entry whose reason is not in its list's closed set.
"""

import ast
import contextlib
import gc
import json
import os
import re
import runpy
import sys
import time
import types
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SRC_PREFIX = str(SRC) + os.sep
RATCHET = ROOT / "tools" / "idle_ratchet.json"
KNOB_RATCHET = ROOT / "tools" / "knob_ratchet.json"
FORK_COUNTERS = (  # prefixes
    "serialize_tree_", "query_index_", "query_tree_",
)
#: The closed set of reasons an idle function may stay for.
REASONS = {
    "reserved:7": "a span or PROF reader; ROADMAP 7's debugger is its caller",
    "reserved:9": "SphereAnalysis.explain; ROADMAP 9 decides it",
    "reserved:13(ii)": "the parent watch; ROADMAP 13(ii) makes it the behaviour or deletes it",
    "reserved:19": "shrinking and repro files; ROADMAP 19 gives them a caller",
    "tracer-boundary": "PeerChain.from_text and _ChainParser; they go with ROADMAP 5(v)",
    "untaken-branch": "a program caller reaches it on a branch no traffic takes",
    "error-path": "runs only on bad input or a failed step",
    "reference": "public surface no program path needs: an accessor, a base-class default, a helper",
    "pair": "the other half of a pair: an undo, or the index side of a maintenance call",
    "cli": "reached only from a command the census does not run",
}
#: The closed set of reasons a default no traffic moves may stay for.
KNOB_REASONS = {
    "reserved:13(ii)": "the parent watch interval; ROADMAP 13(ii) makes it the behaviour or deletes it",
    "reserved:19": "run_chaos(plan=); ROADMAP 19's repro files replay a plan through it",
    "derived": "the caller computes it from run state, and no traffic state yields another value",
    "cli": "a command-line entry point's argument or default",
    "frozen": "fed from a value the frozen benchmark ladder sets",
    "reference": "a paper mechanism no program path drives",
}
entered = set()
#: ``(file, first line)`` of every def under ``src/repro/`` with a defaulted
#: parameter (filled by ``main`` from ``defined_functions``).
DEFAULTED: Set[Tuple[str, int]] = set()
#: code object -> ``{parameter: default}`` not yet bound to another value.
unmoved: Dict[types.CodeType, Dict[str, object]] = {}
#: code object -> ``{parameter: default}`` not yet left at its default.
always_moved: Dict[types.CodeType, Dict[str, object]] = {}
defaulted_calls: Counter = Counter()  # code object -> calls


def hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if not code.co_filename.startswith(SRC_PREFIX):
        return
    entered.add((code.co_filename, code.co_firstlineno))
    defaults = unmoved.get(code)
    if defaults is None:
        if (code.co_filename, code.co_firstlineno) not in DEFAULTED:
            return
        defaults = unmoved[code] = defaults_of(code)
        always_moved[code] = dict(defaults)
    defaulted_calls[code] += 1
    moved = always_moved[code]
    if defaults or moved:
        bound = frame.f_locals  # the profiler already copied the arguments there
        for name, default in list(defaults.items()):
            if not same_value(bound.get(name, default), default):
                del defaults[name]
        for name, default in list(moved.items()):
            if same_value(bound.get(name, default), default):
                del moved[name]


def same_value(value, default) -> bool:
    if value is default:
        return True
    return value is not None and default is not None and bool(value == default)


def defaults_of(code: types.CodeType) -> Dict[str, object]:
    """``{parameter: default}`` of the live function running *code* (once per code
    object; only functions reference their code)."""
    function = next((f for f in gc.get_referrers(code)
                     if isinstance(f, types.FunctionType) and f.__code__ is code), None)
    if function is None:
        return {}
    positional = function.__defaults__ or ()
    names = code.co_varnames[code.co_argcount - len(positional):code.co_argcount]
    return {**dict(zip(names, positional)), **(function.__kwdefaults__ or {})}


def knob_lines(
    functions: Dict[Tuple[str, int], "Function"], knobs: Dict[types.CodeType, Dict[str, object]]
) -> Dict[str, str]:
    """``{"path::qualname(name)": "path::qualname(name=default)  N calls"}`` for
    each parameter left in *knobs* (``unmoved`` or ``always_moved``)."""
    lines = {}
    for code, defaults in knobs.items():
        key = functions[code.co_filename, code.co_firstlineno].key
        for name, default in defaults.items():
            lines[f"{key}({name})"] = f"{key}({name}={default!r})  {defaulted_calls[code]} calls"
    return lines


CLI_COMMANDS = (  # the figure/report surface of the verify skill, and one chaos run
    "atplist --query A", "atplist --query B --abort",
    "fig1 --fault AP5:S5 --handler AP3:S5",
    "fig2 --case b", "fig2 --case c", "fig2 --case d",
    "report --scenario fig1 --fault AP5:S5", "spheres --super-fraction 0.5",
    "chaos --seed 3 --txns 8",
)


class Function(NamedTuple):
    key: str  # "path::qualname"
    lines: int
    exempt: bool  # a dunder or a typing.Protocol member
    defaults: Tuple[str, ...] = ()  # its parameters that have a default


def _defs(node: ast.AST, prefix: str = "", protocol: bool = False):
    """``(qualname, def node, in a Protocol class)`` for every def below *node*;
    the qualname is built as ``__qualname__`` would be."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            bases = {getattr(base, "id", getattr(base, "attr", None)) for base in child.bases}
            yield from _defs(child, f"{prefix}{child.name}.", "Protocol" in bases)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child, protocol
            yield from _defs(child, f"{prefix}{child.name}.<locals>.")
        else:  # an if/try/with body: same scope
            yield from _defs(child, prefix, protocol)


def defined_functions(src: Path = SRC, root: Path = ROOT) -> Dict[Tuple[str, int], Function]:
    """``(file, first line) -> Function`` for every def under *src*; the first line
    is the code object's ``co_firstlineno``, a decorator's line when there is one."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        for qualname, node, protocol in _defs(ast.parse(path.read_text(), str(path))):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            name, args = node.name, node.args
            positional = args.posonlyargs + args.args
            found[str(path), first] = Function(
                f"{relative}::{qualname}",
                node.end_lineno - first + 1,
                protocol or (name.startswith("__") and name.endswith("__")),
                tuple(a.arg for a in positional[len(positional) - len(args.defaults):])
                + tuple(a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None),
            )
    return found


def idle_functions(
    functions: Dict[Tuple[str, int], Function], entered: Set[Tuple[str, int]]
) -> Dict[str, int]:
    """``{key: lines}`` of every non-exempt function no traffic entered (a key
    two defs share, such as a property and its setter, is idle only if both are)."""
    live = {function.key for site, function in functions.items() if site in entered}
    idle: Dict[str, int] = {}
    for function in functions.values():
        if not function.exempt and function.key not in live:
            idle[function.key] = idle.get(function.key, 0) + function.lines
    return idle


def defined_knobs(functions: Dict[Tuple[str, int], Function]) -> Set[str]:
    """``path::qualname(name)`` of every defaulted parameter under *functions*."""
    return {f"{f.key}({name})" for f in functions.values() for name in f.defaults}


def ratchet_findings(
    listed: Dict[str, str], current: Iterable[str], defined: Set[str],
    reasons: Dict[str, str], unlisted: str, stale: str,
) -> List[str]:
    """What ``--check`` reports for one list: a *current* key that is not
    listed, a listed key that is no longer *current* or *defined*, and a
    reason outside *reasons*."""
    current = set(current)
    out = []
    for key in sorted(current | set(listed)):
        reason = listed.get(key)
        if reason is None:
            out.append(f"{key}: {unlisted}")
            continue
        if key not in defined:
            out.append(f"{key}: listed but gone — bank it (--update)")
        elif key not in current:
            out.append(f"{key}: listed but {stale} — bank it (--update)")
        if reason not in reasons:
            out.append(f"{key}: reason {reason!r} is not one of {', '.join(sorted(reasons))}")
    return out


def findings(
    listed: Dict[str, str],
    functions: Dict[Tuple[str, int], Function],
    entered: Set[Tuple[str, int]],
) -> List[str]:
    return ratchet_findings(
        listed, idle_functions(functions, entered),
        {function.key for function in functions.values()}, REASONS,
        "never entered and not listed — give it traffic, delete it, or list it with a reason",
        "no longer idle",
    )


def knob_findings(
    listed: Dict[str, str], knobs: Iterable[str], functions: Dict[Tuple[str, int], Function]
) -> List[str]:
    """:func:`findings` for the never-moved defaults *knobs* (their keys)."""
    return ratchet_findings(
        listed, knobs, defined_knobs(functions), KNOB_REASONS,
        "never moved and not listed — make it a constant, delete it, or list it with a reason",
        "moved",
    )


def bank(listed: Dict[str, str], current: Iterable[str]) -> Dict[str, str]:
    """A list after ``--update``: entries still *current*; none is added."""
    current = set(current)
    return {key: reason for key, reason in sorted(listed.items()) if key in current}


def verdict(argv: List[str], functions: Dict[Tuple[str, int], Function]) -> int:
    """Apply both ratchets to what the hook saw (``--check``/``--update``);
    returns the exit status."""
    if not {"--check", "--update"} & set(argv):
        return 0
    idle = idle_functions(functions, entered)
    knobs = knob_lines(functions, unmoved)
    problems = []
    for path, current, check in (
        (RATCHET, idle, lambda listed: findings(listed, functions, entered)),
        (KNOB_RATCHET, knobs, lambda listed: knob_findings(listed, knobs, functions)),
    ):
        listed = json.loads(path.read_text())
        if "--update" in argv:
            listed = bank(listed, current)
            path.write_text(json.dumps(listed, indent=1, sort_keys=True) + "\n")
        problems += check(listed)
        print(f"{path.name}: {len(listed)} listed")
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print("no new idle code, no new never-moved default")
    return 0


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
    sys.setprofile(hook)  # per item: an item may have replaced it
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start(sys.argv[0], run_name="__main__")
    except SystemExit as stop:
        return stop.code or 0
    return 0


def main(argv: List[str]) -> int:
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(ROOT)]
    started = time.perf_counter()
    functions = defined_functions()
    DEFAULTED.update(site for site, function in functions.items() if function.defaults)
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
    sys.setprofile(None)
    idle = idle_functions(functions, entered)
    print(
        f"{len(idle)} of {len({f.key for f in functions.values()})} functions "
        f"({sum(idle.values())} lines) under src/repro/ never entered, "
        "dunders and Protocol members aside:"
    )
    for key in sorted(idle):
        print(f"  {key}")
    for knobs, what in (
        (unmoved, "never bound to a value other than their default"),
        (always_moved, "never left at their default (only tests rely on the default)"),
    ):
        lines = knob_lines(functions, knobs)
        print(f"{len(lines)} defaulted parameters of entered functions under src/repro/ {what}:")
        for line in sorted(lines.values()):
            print(f"  {line}")
    print(f"census wall time: {time.perf_counter() - started:.0f} s", file=sys.stderr)
    return verdict(argv, functions)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
