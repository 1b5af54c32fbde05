"""Replay of the parser golden corpus (``tests/data/parser_golden.json``).

The corpus was written by ``tools/gen_parser_golden.py`` at the parent
of PR 14, i.e. by the per-character cursor parser the scanning parser
replaced: 2 400 fuzzed inputs with the tree (ids included, so id
allocation order is pinned), the error text and position, and the ids a
failed ``parse_fragment`` leaves behind.  The scanning parser must
reproduce every row except the ones its two typed-error fixes changed
on purpose, listed in ``BUGFIX_ROWS``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).parent.parent / "tools" / "gen_parser_golden.py"
_spec = importlib.util.spec_from_file_location("gen_parser_golden", _TOOL)
_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tool)
observe = _tool.observe  # the one definition of what a row pins

ROWS = json.loads(_tool.GOLDEN.read_text(encoding="utf-8"))

#: row → (outcome at the parent, error now, ids allocated now).  Parent
#: outcomes "<OverflowError>"/"<ValueError>" are the untyped escapes;
#: the others are inputs where the parent accepted a lone surrogate or a
#: name with an empty prefix/local part and went on to a later verdict.
BUGFIX_ROWS = {
    99: ("<OverflowError>", ["bad character reference &#xFFFFFFFFFFFFFFFFFFFF;", 3, 44], None),
    381: ("expected '=', found '>'", ["invalid XML name ':'", 1, 13], None),
    414: ("bad character reference &#x110000;", ["invalid XML name 'a:'", 1, 37], None),
    524: ("invalid XML name '-x'", ["bad character reference &#57343;", 5, 20], None),
    671: ("unknown entity &amp&#0;", ["invalid XML name 'a:'", 2, 9], None),
    691: ("ok", ["invalid XML name ':'", 1, 52], None),
    699: ("<OverflowError>", ["bad character reference &#xFFFFFFFFFFFFFFFFFFFF;", 8, 1], None),
    999: ("unknown entity &&gt;", ["bad character reference &#xD800;", 5, 2], None),
    1095: ("attribute value must be quoted", ["invalid XML name 'a:'", 1, 24], None),
    1122: ("content after the root element", ["bad character reference &#xD800;", 8, 15], None),
    1198: ("<ValueError>", ["invalid XML name ':a'", 3, 10], None),
    1424: ("<ValueError>", ["invalid XML name ':b'", 1, 4], 2),
    1435: ("<ValueError>", ["invalid XML name 'a:'", 1, 23], 2),
    1553: ("expected '=', found '>'", ["invalid XML name ':q:r'", 1, 9], 2),
    1596: ("expected '=', found ''", ["invalid XML name 'a:'", 4, 31], 8),
    1605: ("expected '=', found 's'", ["invalid XML name 'axml:'", 2, 6], 4),
    1669: ("<OverflowError>", ["bad character reference &#99999999999999999999;", 10, 46], 11),
    1768: ("<ValueError>", ["invalid XML name ':'", 1, 5], 2),
    1829: ("<ValueError>", ["invalid XML name ':'", 9, 9], 6),
    1974: ("invalid XML name 'a$'", ["invalid XML name ':a'", 1, 20], 2),
    2050: ("mismatched closing tag </a> for <A9>", ["bad character reference &#57343;", 3, 30], 5),
    2278: ("invalid XML name ''", ["invalid XML name ':'", 2, 17], 4),
}


def test_corpus_shape():
    assert len(ROWS) >= 2000
    assert {row["mode"] for row in ROWS} == {"document", "fragment"}
    assert sum("ok" in row for row in ROWS) > len(ROWS) // 3
    assert sum("\n" in row["input"] for row in ROWS) > len(ROWS) // 3
    untyped = [i for i, row in enumerate(ROWS) if row.get("error", [""])[0].startswith("<")]
    assert set(untyped) <= set(BUGFIX_ROWS)


def test_every_unlisted_row_is_reproduced():
    changed = []
    for index, row in enumerate(ROWS):
        pinned = {key: row[key] for key in row if key not in ("mode", "input")}
        if index not in BUGFIX_ROWS and observe(row["mode"], row["input"]) != pinned:
            changed.append(index)
    assert changed == []


@pytest.mark.parametrize("index", sorted(BUGFIX_ROWS))
def test_listed_row_changed_as_stated(index):
    row = ROWS[index]
    before, error, allocated = BUGFIX_ROWS[index]
    assert (row["error"][0] if "error" in row else "ok") == before
    expected = {"error": error}
    if row["mode"] == "fragment":
        expected["allocated"] = allocated
    assert observe(row["mode"], row["input"]) == expected
