#!/usr/bin/env python3
"""Fail when code copies trees via serialize→parse round trips.

PR 9's structural clone (``Document.clone_tree``) replaced every
serialize→``parse_document`` round trip on the hot paths; this check
keeps them from creeping back in.  Three patterns are flagged:

* ``parse_document(serialize(...))`` — including the multi-line form —
  which re-parses text that was just rendered from a live tree; use
  ``Document.clone_tree()`` instead.
* ``X.from_text(....to_text())`` in one expression (the old
  ``PeerChain.copy`` shape); give the type a structural ``copy()``.
* under ``src/``, any ``from_text(`` or ``.to_text(`` call outside
  ``src/repro/p2p/chain.py``: an invocation carries its active-peer
  chain as a ``PeerChain`` snapshot, and the bracket text is the paper's
  notation for the edges (``repr``, E10's byte count), not a per-hop
  encoding.
* under ``src/``, any ``parse_fragment(`` call outside
  ``xmlstore/fragment.py`` (a ``<data>`` fragment held as text is parsed
  into the document that receives it) and the two axml readers of
  service results (``axml/materialize.py``, ``axml/service_call.py``):
  a parsed or bound ``<data>`` fragment is a tree that belongs to no
  document, built into its target, never re-parsed from its text.
* in ``src/repro/txn/wal.py``, any ``Document(``: ``entry_to_xml``
  writes a frame straight from the entry, not through a scratch tree.
* under ``src/``, any ``.value =`` write outside ``xmlstore/nodes.py``,
  and any ``.children`` mutator (a list method that changes it, an
  assignment, a ``del``) outside ``xmlstore/nodes.py`` and
  ``xmlstore/fragment.py`` (whose trees belong to no document).
  The index's value postings outlive queries and are dropped by the node
  layer's attach/detach climb; a text or child list changed behind its
  back would leave them stale.

Under ``benchmarks/`` an occurrence is *approved* by a ``roundtrip-ok``
comment on the same line or within the five lines above it (a baseline
that measures the round trip itself).  Nothing under ``src/`` is.

Usage: python tools/check_serialization_hygiene.py  (exit 1 on findings)
"""

from __future__ import annotations

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Directories scanned (tests are exempt: they pin round-trip
#: equivalence on purpose).
SCAN_DIRS = ("src", "benchmarks")

APPROVAL = "roundtrip-ok"
APPROVAL_WINDOW = 5
#: The only directory where an approval comment counts.
APPROVAL_DIR = "benchmarks"

PATTERNS = (
    (
        re.compile(r"parse_document\(\s*serialize\("),
        "parse_document(serialize(...)) round trip — use Document.clone_tree()",
    ),
    (
        re.compile(r"\.from_text\([^)\n]*\.to_text\(\)"),
        "from_text(to_text()) round trip — use a structural copy()",
    ),
)

#: Only the chain module renders or parses chain text under ``src/``.
CHAIN_MODULE = os.path.join("src", "repro", "p2p", "chain.py")
CHAIN_TEXT = (
    re.compile(r"\bfrom_text\(|\.to_text\("),
    "chain text outside p2p/chain.py — carry the PeerChain (copy() a snapshot)",
)

#: Under ``src/`` a ``<data>`` fragment held as text is parsed only into
#: the document that receives it; service results and materialized calls
#: are the other texts to parse.
FRAGMENT_PARSERS = tuple(
    os.path.join("src", "repro", *parts)
    for parts in (("xmlstore", "fragment.py"), ("axml", "materialize.py"),
                  ("axml", "service_call.py"), ("xmlstore", "parser.py"))
)
FRAGMENT_TEXT = (
    re.compile(r"\bparse_fragment\("),
    "parse_fragment outside Fragment.materialize (xmlstore/fragment.py) and the axml result "
    "readers — keep the <data> fragment's tree (repro.xmlstore.fragment.Fragment)",
)

#: The WAL encoder writes a frame straight from the entry.
WAL_MODULE = os.path.join("src", "repro", "txn", "wal.py")
WAL_TREE = (
    re.compile(r"\bDocument\("),
    "a scratch Document in txn/wal.py — write the frame from the entry (entry_to_xml)",
)


#: Only the node layer writes text.
TEXT_WRITERS = (os.path.join("src", "repro", "xmlstore", "nodes.py"),)
TEXT_WRITE = (
    re.compile(r"\.value\s*\+?=(?!=)"),
    "a text write outside the node layer — the index's value postings would go stale",
)
#: Only the node layer changes a child list (and a fragment tree, which
#: no document holds, its own).
CHILD_WRITERS = tuple(
    os.path.join("src", "repro", "xmlstore", name) for name in ("nodes.py", "fragment.py")
)
CHILD_WRITE = (
    re.compile(
        r"\.children\.(?:append|insert|extend|pop|remove|clear|sort|reverse)\("
        r"|\.children\s*(?:\[[^\]\n]*\]\s*)?\+?=(?!=)|\bdel\s+[\w.]*\.children\b"
    ),
    "a child list changed outside the node layer — use Element.append/insert_at/detach",
)


def src_patterns(rel: str) -> tuple:
    """The patterns a file under ``src/`` is checked against."""
    patterns = PATTERNS
    if rel != CHAIN_MODULE:
        patterns += (CHAIN_TEXT,)
    if rel not in FRAGMENT_PARSERS:
        patterns += (FRAGMENT_TEXT,)
    if rel == WAL_MODULE:
        patterns += (WAL_TREE,)
    if rel not in TEXT_WRITERS:
        patterns += (TEXT_WRITE,)
    if rel not in CHILD_WRITERS:
        patterns += (CHILD_WRITE,)
    return patterns


def check_file(path: str, approvable: bool, patterns=PATTERNS) -> list:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    lines = text.splitlines()
    findings = []
    for pattern, message in patterns:
        for match in pattern.finditer(text):
            lineno = text.count("\n", 0, match.start()) + 1
            window = lines[max(0, lineno - 1 - APPROVAL_WINDOW):lineno]
            if approvable and any(APPROVAL in line for line in window):
                continue
            findings.append((path, lineno, message))
    return findings


def main() -> int:
    findings = []
    for scan_dir in SCAN_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, scan_dir)):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                patterns = PATTERNS
                if scan_dir == "src":
                    patterns = src_patterns(os.path.relpath(path, ROOT))
                findings.extend(check_file(path, scan_dir == APPROVAL_DIR, patterns))
    for path, lineno, message in findings:
        rel = os.path.relpath(path, ROOT)
        print(f"{rel}:{lineno}: {message}", file=sys.stderr)
    if findings:
        print(
            f"\n{len(findings)} serialization round trip(s) found; copy trees "
            f"with Document.clone_tree() / a structural copy(); a benchmark "
            f"baseline may carry a '{APPROVAL}' comment.",
            file=sys.stderr,
        )
        return 1
    print("serialization hygiene: no unapproved round trips")
    return 0


if __name__ == "__main__":
    sys.exit(main())
