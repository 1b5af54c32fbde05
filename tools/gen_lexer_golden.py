#!/usr/bin/env python
"""Corpus that pins ``repro.query.lexer.tokenize`` token by token.

``tests/data/lexer_golden.json`` was written by this script **at the
parent of PR 20** (commit ``a19e505``, the lexer that probed every
operator at every character)::

    PYTHONPATH=src python tools/gen_lexer_golden.py --write

and ``tests/test_lexer_golden.py`` replays the stored inputs against the
current lexer.  ``--write`` collects the inputs afresh (so it re-pins
the corpus to whatever lexer and tree are checked out: do it only on
purpose); ``--check`` replays the stored ones and lists the rows that
differ.

Inputs: every string constant under ``src/``, ``tests/``, ``examples/``
and ``benchmarks/`` that mentions ``select`` (the ``<location>`` text of
an action template, the whole string otherwise; ``$name`` holes and
f-string pieces are tokenised as they stand), the hand-written edge
cases in ``EDGE_CASES``, and ``FUZZ_ROWS`` seeded mixes of the lexer's
alphabet.  Each row is ``{"input", "tokens" | "error"}``: ``tokens`` is
``[[kind, value, position], ...]``, ``error`` is ``[message, position]``
of the :class:`~repro.errors.QuerySyntaxError`.
"""

from __future__ import annotations

import argparse
import ast
import json
import random
import re
import sys
from pathlib import Path
from typing import Dict, List

from repro.errors import QuerySyntaxError
from repro.query.lexer import tokenize

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "lexer_golden.json"
SCANNED = ("src", "tests", "examples", "benchmarks")
SEED = 20
FUZZ_ROWS = 600

EDGE_CASES = [
    "", " ", "\t\r\n", "a!b", "a!=b", "a! =b", "!", "!!=", "x<>y", "x< >y", "<=", ">=", "=<", "=>",
    "<<=>>", "===", "a=b", "a = b", "a<b>c", "p/@rank>=3", "p/points<=400;", "'", '"', "'abc",
    'x = "abc', "x = 'a\"b'", "x = \"a'b\"", "''", '""', "a''b", "a'b'c", "Select\tp\r\nfrom\np in D;",
    "SELECT p FROM p IN D WHERE p/x = AND;", "select,from;in", "a,b;c", ",;", ";;", "a ,b ; c",
    "id(d1.n3@ATPList)", "p/name/lastname = Roger  Federer;", "p/*//x[1]/..", "é = ü", "a b",
    "a\x0bb", "a\x00b", "x = $name", "x = ${name}", "$$", "in", "In", "iN", "inn", "or", "ORDER",
    "Select p/citizenship from p in ATPList//player where p/name/lastname = Federer;",
    "Select p from p in D where p/a = 1 and p/b != 2 or p/c <> 3;",
]

_PIECES = [
    "Select", "select", "from", "in", "where", "and", "or", "AND", "p", "p/name", "ATPList//player",
    "i/@sku", "id(d1.n3@D)", "Federer", "42", "-1.5e3", "*", "..", "$x", "é", "a!b", "!", "!=", "<>",
    "<=", ">=", "=", "<", ">", ",", ";", "'", '"', "'x y'", '"q"', " ", " ", "  ", "\t", "\r\n", "\n",
]


def _string_constants(path: Path) -> List[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    return [text for text in found if "select" in text.lower()]


def collect_inputs() -> List[str]:
    """The deterministic, de-duplicated input list for the checked-out tree."""
    inputs: List[str] = []
    for directory in SCANNED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for text in _string_constants(path):
                locations = re.findall(r"<location>(.*?)</location>", text, re.DOTALL)
                inputs.extend(locations or [text])
    inputs.extend(EDGE_CASES)
    rng = random.Random(SEED)
    for _ in range(FUZZ_ROWS):
        glue = rng.choice(["", "", " "])
        inputs.append(glue.join(rng.choice(_PIECES) for _ in range(rng.randint(1, 9))))
    return list(dict.fromkeys(inputs))


def observe(text: str) -> Dict[str, object]:
    """Everything the corpus pins about tokenising *text*."""
    try:
        return {"tokens": [[t.kind, t.value, t.position] for t in tokenize(text)]}
    except QuerySyntaxError as exc:
        return {"error": [str(exc), exc.position]}


def changed_rows(pinned: List[Dict[str, object]]) -> List[int]:
    """Indexes of the pinned rows this lexer does not reproduce."""
    return [
        index
        for index, row in enumerate(pinned)
        if {"input": row["input"], **observe(row["input"])} != row
    ]


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", action="store_true", help="re-pin the corpus to this lexer")
    group.add_argument("--check", action="store_true", help="replay the stored inputs")
    args = parser.parse_args(argv)
    if args.write:
        rows = [{"input": text, **observe(text)} for text in collect_inputs()]
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(rows, ensure_ascii=True, indent=0) + "\n", encoding="utf-8")
        errors = sum(1 for row in rows if "error" in row)
        print(f"wrote {len(rows)} rows ({errors} errors) to {GOLDEN}")
        return 0
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    changed = changed_rows(pinned)
    print(f"{len(pinned) - len(changed)}/{len(pinned)} rows reproduced; changed rows: {changed}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
