#!/usr/bin/env python3
"""Fail when protocol code lets ``PYTHONHASHSEED`` decide an order.

Builtin ``hash(str)`` is salted per process (``PYTHONHASHSEED``), so any
placement, routing, or scheduling decision derived from it silently
varies between runs — exactly the nondeterminism this repo's
byte-identical-summary guarantee forbids.  Two ways in are flagged:

* a builtin ``hash(...)`` call.  The deterministic substitutes are
  :func:`repro.sim.rng.stable_seed` (crc32-based) for seeds and the
  crc32 point hashing in :class:`repro.p2p.sharding.ShardRing` for ring
  placement;
* a set whose iteration order reaches the program: a set display, a set
  comprehension or a ``set(...)`` / ``frozenset(...)`` call — or a local
  name bound to one — that is iterated (``for``, a comprehension source)
  or passed to any call except an order-free consumer
  (:data:`ORDER_FREE`: ``sorted``, ``len``, ``min``, ``max``, ``sum``,
  ``any``, ``all``, ``set``, ``frozenset``).  ``list``/``tuple``/``join``
  and, say, a message fan-out are calls like any other.  A set of
  strings iterates in salted-hash order: sort it, or keep the order it
  was built in with ``dict.fromkeys(...)``.  (An Abort fan-out once
  followed a set comprehension and so depended on ``PYTHONHASHSEED``.)

The check parses each file with :mod:`ast` — not text matches, so
comments and docstrings that merely *mention* ``hash()`` pass.  A
finding is *approved* by a ``hash-ok: <reason>`` comment on its line,
for a use whose order genuinely never reaches a decision.

Usage: python tools/check_hash_hygiene.py  (exit 1 on findings)
"""

from __future__ import annotations

import ast
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Packages where every order must be deterministic: the P2P substrate
#: (placement, routing, replication), the simulation kernel (scheduling,
#: RNG streams), the transaction layer and the chaos harness.
SCAN_DIRS = tuple(
    os.path.join("src", "repro", package) for package in ("p2p", "sim", "txn", "chaos")
)

#: ``hash-ok`` followed by a reason.
APPROVAL = re.compile(r"hash-ok:\s*\S")

#: Calls whose result does not depend on the order they read a set in.
ORDER_FREE = frozenset(
    {"sorted", "len", "min", "max", "sum", "any", "all", "set", "frozenset"}
)

HASH_MESSAGE = (
    "builtin hash() is PYTHONHASHSEED-salted — use stable_seed()/crc32 "
    "(see repro.sim.rng, repro.p2p.sharding)"
)
SET_MESSAGE = (
    "{what}, whose order is PYTHONHASHSEED-salted — sort it, or "
    "build it in order with dict.fromkeys(...)"
)

_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _scope_nodes(scope: ast.AST):
    """Every node of *scope* outside the scopes nested in it."""
    pending = list(ast.iter_child_nodes(scope))
    while pending:
        node = pending.pop()
        yield node
        if not isinstance(node, _SCOPES):
            pending.extend(ast.iter_child_nodes(node))


def _is_set(node: ast.AST, set_names: frozenset) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset")
    return isinstance(node, ast.Name) and node.id in set_names


def _set_names(scope: ast.AST) -> frozenset:
    """Local names *scope* binds to a set."""
    names = set()
    for node in _scope_nodes(scope):
        if isinstance(node, ast.Assign) and _is_set(node.value, frozenset()):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif (
            isinstance(node, ast.AnnAssign)
            and node.value is not None
            and isinstance(node.target, ast.Name)
            and _is_set(node.value, frozenset())
        ):
            names.add(node.target.id)
    return frozenset(names)


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else "a callable"


def _set_findings(scope: ast.AST):
    """``(line, what)`` for every set use in *scope* whose order escapes."""
    set_names = _set_names(scope)
    for node in _scope_nodes(scope):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            if _is_set(node.iter, set_names):
                yield node.iter.lineno, "iterates a set"
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ORDER_FREE:
                continue
            arguments = [a.value if isinstance(a, ast.Starred) else a for a in node.args]
            arguments += [k.value for k in node.keywords]
            for argument in arguments:
                if _is_set(argument, set_names):
                    yield argument.lineno, f"passes a set to {_callee(node)}()"


def check_file(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        return [(path, exc.lineno or 0, f"unparseable: {exc.msg}")]
    lines = text.splitlines()
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash"
        ):
            found.append((node.lineno, HASH_MESSAGE))
        if isinstance(node, _SCOPES):
            found.extend(
                (line, SET_MESSAGE.format(what=what))
                for line, what in _set_findings(node)
            )
    return [
        (path, lineno, message)
        for lineno, message in sorted(found)
        if not APPROVAL.search(lines[lineno - 1] if lineno <= len(lines) else "")
    ]


def main() -> int:
    findings = []
    for scan_dir in SCAN_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, scan_dir)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                findings.extend(check_file(os.path.join(dirpath, filename)))
    for path, lineno, message in findings:
        rel = os.path.relpath(path, ROOT)
        print(f"{rel}:{lineno}: {message}", file=sys.stderr)
    if findings:
        print(
            f"\n{len(findings)} hash-order finding(s) in protocol code; derive "
            f"values with stable_seed()/zlib.crc32, keep sets out of ordered "
            f"uses, or mark an order-free use with a '# hash-ok: <reason>' "
            f"comment.",
            file=sys.stderr,
        )
        return 1
    print("hash hygiene: no builtin hash() and no set order in protocol code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
