"""tools/check_size_ratchet.py: large source files only shrink."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "check_size_ratchet", os.path.join(ROOT, "tools", "check_size_ratchet.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_ratchet_matches_the_tree(capsys):
    assert _tool().main([]) == 0, capsys.readouterr().err


def test_growth_new_large_files_and_unbanked_shrinks_are_findings():
    tool = _tool()
    recorded = {"src/a.py": 900, "src/b.py": 600, "src/gone.py": 700}
    counts = {"src/a.py": 901, "src/b.py": 550, "src/c.py": 501, "src/d.py": 500}
    assert tool.findings(recorded, counts) == [
        "src/a.py: grew from 900 to 901 lines",
        "src/b.py: 550 lines but 600 recorded — bank it (--update)",
        "src/c.py: 501 lines — a new file over 500",
        "src/gone.py: recorded but gone — drop it (--update)",
    ]


def test_update_only_ever_lowers_a_record():
    tool = _tool()
    recorded = {"src/a.py": 900, "src/b.py": 600, "src/small.py": 520,
                "src/pinned.py": 470, "src/gone.py": 300}
    counts = {"src/a.py": 950, "src/b.py": 550, "src/small.py": 480,
              "src/pinned.py": 460}
    assert tool.ratcheted(recorded, counts) == {
        "src/a.py": 900, "src/b.py": 550,
        "src/pinned.py": 460,  # pinned under the limit by hand: stays
    }
