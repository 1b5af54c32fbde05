"""tools/check_hash_hygiene.py: no salted hash order in protocol code."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "check_hash_hygiene", os.path.join(ROOT, "tools", "check_hash_hygiene.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tree_is_clean(capsys):
    assert _tool().main() == 0, capsys.readouterr().err


def test_set_order_reaching_the_program_is_a_finding(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "def fan_out(edges, tell, xs):\n"
        "    tell({e.target for e in edges})\n"          # 2: the Abort fan-out bug
        "    targets = set(xs)\n"
        "    for t in targets:\n"                        # 4: a local bound to a set
        "        tell(t)\n"
        "    tell(sorted(targets), len({1, 2}))\n"       # 6: order-free consumers
        "    tell(frozenset(xs))  # hash-ok: membership\n"  # 7: approved
        "    tell(frozenset(xs))  # hash-ok\n"           # 8: no reason given
        "    return ','.join(x for x in {'a', 'b'}), hash(xs)\n"  # 9: twice
    )
    lines = [line for _path, line, _message in _tool().check_file(str(source))]
    assert lines == [2, 4, 8, 9, 9]
