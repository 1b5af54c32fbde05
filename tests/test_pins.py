"""tools/pins.py: the behaviour pins are a committed manifest."""

import importlib.util
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location("pins", os.path.join(ROOT, "tools", "pins.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pinned(tool):
    with open(tool.MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


def test_one_byte_transcript_change_fails_check(monkeypatch, tmp_path, capsys):
    """Pin the transcripts example's output as this interpreter prints it,
    then edit one byte of a walk-through that docs/PROTOCOLS.md quotes."""
    tool = _tool()
    name = "example:protocol_transcripts.py"
    out, _ = tool._process([sys.executable, os.path.join(ROOT, "examples", "protocol_transcripts.py")])
    text = out.decode()
    line = "Fig.1, AP5 fails while processing S5"
    with open(os.path.join(ROOT, "docs", "PROTOCOLS.md"), encoding="utf-8") as handle:
        assert line in handle.read()
    at = text.index(line)
    changed = text[:at] + "Fig.2" + text[at + 5:]
    manifest = tmp_path / "pins.json"
    manifest.write_text(json.dumps({name: tool.digest(out)}))
    monkeypatch.setattr(tool, "MANIFEST", str(manifest))
    for produced, status, err in (
        (text, 0, ""),
        (changed, 1, f"{name}: moved\n"),
    ):
        pins = {name: tool.digest(produced.encode())}
        monkeypatch.setattr(tool, "produce", lambda: dict.fromkeys(tool.HASH_SEEDS, pins))
        assert tool.main(["--check"]) == status
        assert capsys.readouterr().err == err


def test_hash_seed_disagreement_and_unpinned_artifacts_are_findings():
    tool = _tool()
    runs = {"0": {"a": "1", "b": "2"}, "7": {"a": "1", "b": "3", "c": "4"}}
    assert tool.disagreements(runs) == [
        "b: differs between PYTHONHASHSEED=0 and 7",
        "c: differs between PYTHONHASHSEED=0 and 7",
    ]
    assert tool.findings({"a": "1", "gone": "5", "b": "9"}, runs["7"]) == [
        "b: moved",
        "c: produced but not pinned",
        "gone: pinned but no longer produced",
    ]


def test_the_grid_covers_every_shape_rung_example_and_command():
    tool = _tool()
    names = set(_pinned(tool))
    for shape in tool._shapes():
        for seed in tool.SCREEN_SEEDS:
            assert f"chaos:{shape}:{seed}:summary" in names
    for rung in tool.RUNGS:
        assert f"rung:{rung}:21:violations" in names
    for example in [n for n in os.listdir(os.path.join(ROOT, "examples")) if n.endswith(".py")]:
        assert f"example:{example}" in names
    assert {f"cli:{command}" for command in tool.CLI_COMMANDS} <= names
