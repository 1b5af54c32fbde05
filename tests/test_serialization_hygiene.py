"""tools/check_serialization_hygiene.py: no text round trips on the hot paths."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "check_serialization_hygiene",
        os.path.join(ROOT, "tools", "check_serialization_hygiene.py"),
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tree_is_clean(capsys):
    assert _tool().main() == 0, capsys.readouterr().err


def test_fragment_reparse_and_scratch_frame_trees_are_findings(tmp_path):
    tool = _tool()
    source = tmp_path / "probe.py"
    source.write_text(
        "nodes = parse_fragment(action.data[0], document)\n"  # 1: a re-parse of <data>
        "doc = Document('entry')\n"                            # 2: a scratch frame tree
        "root = parse_document(text).root\n"                   # 3: decoding is fine
    )
    update = os.path.join("src", "repro", "query", "update.py")
    wal = os.path.join("src", "repro", "txn", "wal.py")
    memo = os.path.join("src", "repro", "query", "ast.py")

    def lines(rel):
        found = tool.check_file(str(source), False, tool.src_patterns(rel))
        return sorted(line for _path, line, _message in found)

    assert lines(update) == [1]
    assert lines(wal) == [1, 2]
    assert lines(memo) == []


def test_text_and_child_list_writes_outside_the_node_layer_are_findings(tmp_path):
    tool = _tool()
    source = tmp_path / "probe.py"
    source.write_text(
        "text.value = 'x'\n"                    # 1: a text write
        "node.children.append(child)\n"         # 2: a child-list mutator
        "node.children[0] = child\n"            # 3: an item assignment
        "del node.children[1:]\n"               # 4: a del
        "node.children = []\n"                  # 5: a rebinding
        "same = text.value == 'x'\n"            # 6: reads are fine
        "first = node.children[0]\n"            # 7
    )

    def lines(*parts):
        rel = os.path.join("src", "repro", *parts)
        found = tool.check_file(str(source), False, tool.src_patterns(rel))
        return sorted(line for _path, line, _message in found)

    assert lines("query", "evaluate.py") == [1, 2, 3, 4, 5]
    assert lines("query", "update.py") == [2, 3, 4, 5]
    assert lines("p2p", "chain.py") == [1, 2, 3, 4, 5]
    assert lines("xmlstore", "nodes.py") == []
