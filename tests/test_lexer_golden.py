"""Replay of the lexer golden corpus (``tests/data/lexer_golden.json``).

The corpus was written by ``tools/gen_lexer_golden.py`` at the parent of
PR 20, i.e. by the lexer that probed seven operators at every character:
every Select string of the tree at that commit, hand-written edge cases
and seeded mixes of the lexer's alphabet, each with its token stream
(kind, value, position) or its error (message, position).  The
one-pattern lexer must reproduce every row.
"""

import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).parent.parent / "tools" / "gen_lexer_golden.py"
_spec = importlib.util.spec_from_file_location("gen_lexer_golden", _TOOL)
_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tool)

ROWS = json.loads(_tool.GOLDEN.read_text(encoding="utf-8"))


def test_corpus_shape():
    inputs = [row["input"] for row in ROWS]
    assert len(ROWS) >= 700 and len(set(inputs)) == len(inputs)
    assert set(_tool.EDGE_CASES) <= set(inputs)
    assert sum("error" in row for row in ROWS) > 50
    kinds = {token[0] for row in ROWS for token in row.get("tokens", ())}
    assert kinds == {"KEYWORD", "PATH", "OP", "STRING", "COMMA", "SEMI"}


def test_every_row_is_reproduced():
    assert _tool.changed_rows(ROWS) == []
