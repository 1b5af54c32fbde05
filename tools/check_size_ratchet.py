#!/usr/bin/env python3
"""Fail when a large source file grows, or a new one becomes large.

ROADMAP's north star asks for "no 1400-line classes" and PRs "proud of a
negative line count".  ``tools/size_ratchet.json`` records the line
count of every ``src/`` file over the limit (500 lines); the check fails
when

* a recorded file is longer than its record (it grew),
* an unrecorded file is over the limit (a new large file), or
* a record is higher than the file (the PR earned a lower number and
  must bank it: ``--update`` rewrites the records, downwards only, and
  drops files that fell to the limit or below).

A file at or under the limit may be pinned by hand (a record at its
current size — a module a PR deliberately moved code into); such a
record is checked and banked like any other and survives ``--update``.

So the recorded numbers only ever go down.

Usage: python tools/check_size_ratchet.py [--update]  (exit 1 on findings)
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIR = "src"
RATCHET = os.path.join("tools", "size_ratchet.json")
LIMIT = 500


def line_counts(root: str = ROOT) -> Dict[str, int]:
    """``{repo-relative path: lines}`` for every ``.py`` under src/."""
    counts = {}
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, SCAN_DIR)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                with open(path, encoding="utf-8") as handle:
                    lines = sum(1 for _ in handle)
                counts[os.path.relpath(path, root).replace(os.sep, "/")] = lines
    return counts


def findings(recorded: Dict[str, int], counts: Dict[str, int]) -> List[str]:
    out = []
    for path, lines in sorted(counts.items()):
        record = recorded.get(path)
        if record is None:
            if lines > LIMIT:
                out.append(f"{path}: {lines} lines — a new file over {LIMIT}")
        elif lines > record:
            out.append(f"{path}: grew from {record} to {lines} lines")
        elif lines < record:
            out.append(
                f"{path}: {lines} lines but {record} recorded — bank it (--update)"
            )
    for path in sorted(set(recorded) - set(counts)):
        out.append(f"{path}: recorded but gone — drop it (--update)")
    return out


def ratcheted(recorded: Dict[str, int], counts: Dict[str, int]) -> Dict[str, int]:
    """The records after banking every shrink; growth is never banked."""
    return {
        path: min(record, counts[path])
        for path, record in sorted(recorded.items())
        if path in counts and (counts[path] > LIMIT or record <= LIMIT)
    }


def main(argv: List[str]) -> int:
    ratchet_path = os.path.join(ROOT, RATCHET)
    with open(ratchet_path, encoding="utf-8") as handle:
        recorded = json.load(handle)
    counts = line_counts()
    if "--update" in argv:
        recorded = ratcheted(recorded, counts)
        with open(ratchet_path, "w", encoding="utf-8") as handle:
            json.dump(recorded, handle, indent=1, sort_keys=True)
            handle.write("\n")
    problems = findings(recorded, counts)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"size ratchet: {len(recorded)} recorded files, none grew")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
