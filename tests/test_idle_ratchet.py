"""tools/traffic_census.py: idle code and never-moved defaults are ratchets."""

import importlib.util
import json
import os
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE = '''\
from typing import Protocol


class Host(Protocol):
    def lookup(self, name: str) -> str: ...


class Store:
    def __init__(self):
        self.items = {}

    def __repr__(self):
        return "Store()"

    def put(self, key, value):
        self.items[key] = value

    def drop(self, key):
        del self.items[key]


def helper():
    return 1
'''


def _tool():
    spec = importlib.util.spec_from_file_location(
        "traffic_census", os.path.join(ROOT, "tools", "traffic_census.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _census(tmp_path, source, entered_names):
    """The tool's view of one module: its functions, and the sites of the
    ones named in *entered_names* as the hook would record them."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True, exist_ok=True)
    (package / "mod.py").write_text(source)
    functions = _tool().defined_functions(package, tmp_path)
    entered = {
        site for site, function in functions.items()
        if function.key.split("::")[1] in entered_names
    }
    return functions, entered


def test_an_unlisted_idle_function_is_a_finding(tmp_path):
    tool = _tool()
    functions, entered = _census(tmp_path, SOURCE, {"Store.put", "Store.drop"})
    assert tool.findings({}, functions, entered) == [
        "src/pkg/mod.py::helper: never entered and not listed — give it traffic, "
        "delete it, or list it with a reason",
    ]
    assert tool.findings({"src/pkg/mod.py::helper": "reference"}, functions, entered) == []


def test_a_listed_function_that_is_entered_or_deleted_asks_to_be_banked(tmp_path):
    tool = _tool()
    listed = {"src/pkg/mod.py::helper": "reference", "src/pkg/mod.py::Store.drop": "pair"}
    deleted = SOURCE.replace("    def drop(self, key):\n        del self.items[key]\n", "")
    functions, entered = _census(tmp_path, deleted, {"Store.put", "helper"})
    assert tool.findings(listed, functions, entered) == [
        "src/pkg/mod.py::Store.drop: listed but gone — bank it (--update)",
        "src/pkg/mod.py::helper: listed but no longer idle — bank it (--update)",
    ]
    assert tool.bank(listed, tool.idle_functions(functions, entered)) == {}
    # --update only removes entries: an idle function it finds unlisted stays a finding.
    functions, entered = _census(tmp_path, SOURCE, {"Store.put"})
    assert tool.bank(listed, tool.idle_functions(functions, entered)) == listed


def test_a_line_shift_is_not_a_finding(tmp_path):
    tool = _tool()
    listed = {"src/pkg/mod.py::helper": "reference"}
    before, entered_before = _census(tmp_path, SOURCE, {"Store.put", "Store.drop"})
    shifted = "# a new header line\n\n" + SOURCE
    after, entered_after = _census(tmp_path, shifted, {"Store.put", "Store.drop"})
    assert set(before) != set(after)  # every first line moved
    assert tool.findings(listed, before, entered_before) == []
    assert tool.findings(listed, after, entered_after) == []


def test_dunders_and_protocol_members_are_exempt(tmp_path):
    tool = _tool()
    functions, entered = _census(tmp_path, SOURCE, set())
    assert sorted(tool.idle_functions(functions, entered)) == [
        "src/pkg/mod.py::Store.drop", "src/pkg/mod.py::Store.put", "src/pkg/mod.py::helper",
    ]
    nested = SOURCE + textwrap.dedent('''
        import typing


        class Peer(typing.Protocol):
            def on_notify(self, message) -> None: ...
    ''')
    functions, entered = _census(tmp_path, nested, {"Store.put", "Store.drop", "helper"})
    assert tool.idle_functions(functions, entered) == {}


def test_an_unknown_reason_is_a_finding(tmp_path):
    tool = _tool()
    functions, entered = _census(tmp_path, SOURCE, {"Store.put", "Store.drop"})
    assert tool.findings({"src/pkg/mod.py::helper": "tests-only"}, functions, entered) == [
        "src/pkg/mod.py::helper: reason 'tests-only' is not one of "
        + ", ".join(sorted(tool.REASONS)),
    ]


def test_committed_list_names_defined_functions_with_valid_reasons():
    """What can be checked without traffic: each entry names a function
    under src/ that no rule exempts, and gives a reason from the closed set."""
    tool = _tool()
    with open(os.path.join(ROOT, "tools", "idle_ratchet.json"), encoding="utf-8") as handle:
        listed = json.load(handle)
    keys = {f.key: f for f in tool.defined_functions().values()}
    assert sorted(key for key in listed if key not in keys) == []
    assert sorted(key for key in listed if keys[key].exempt) == []
    assert sorted(key for key, reason in listed.items() if reason not in tool.REASONS) == []


def test_sites_and_keys_match_the_code_objects_the_hook_sees(tmp_path):
    """A def's site is ``(co_filename, co_firstlineno)`` of its code object (the
    first decorator's line) and its key ends in its ``__qualname__``."""
    source = SOURCE + textwrap.dedent('''
        import functools

        if True:
            class Cache:
                @staticmethod
                @functools.lru_cache(maxsize=None)
                def lookup(key):
                    def inner():
                        return key
                    return inner

                @property
                def size(self):
                    return 0

                async def refresh(self):
                    return None
    ''')
    functions, _ = _census(tmp_path, source, set())
    spec = importlib.util.spec_from_file_location("mod", tmp_path / "src" / "pkg" / "mod.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    Cache = module.Cache
    for function in (
        module.helper, module.Store.put, Cache.lookup.__wrapped__, Cache.lookup("k"),
        Cache.size.fget, Cache.refresh,
    ):
        code = function.__code__
        site = functions[code.co_filename, code.co_firstlineno]
        assert site.key == f"src/pkg/mod.py::{function.__qualname__}"


KNOBS = "src/pkg/mod.py::Store.put(value)", "src/pkg/mod.py::scale(factor)"
KNOB_SOURCE = SOURCE.replace("def put(self, key, value):", "def put(self, key, value=None):") + '''

def scale(x, factor=2, *, offset=0):
    return x * factor + offset
'''


def test_defaulted_parameters_are_read_from_the_ast(tmp_path):
    tool = _tool()
    functions, _ = _census(tmp_path, KNOB_SOURCE, set())
    assert sorted(tool.defined_knobs(functions)) == [
        "src/pkg/mod.py::Store.put(value)",
        "src/pkg/mod.py::scale(factor)", "src/pkg/mod.py::scale(offset)",
    ]


def test_an_unlisted_never_moved_default_is_a_finding(tmp_path):
    tool = _tool()
    functions, _ = _census(tmp_path, KNOB_SOURCE, set())
    assert tool.knob_findings({}, KNOBS, functions) == [
        f"{key}: never moved and not listed — make it a constant, delete it, "
        "or list it with a reason"
        for key in KNOBS
    ]
    listed = {key: "reference" for key in KNOBS}
    assert tool.knob_findings(listed, KNOBS, functions) == []


def test_a_listed_default_that_moved_or_went_is_banked_by_update(tmp_path):
    tool = _tool()
    listed = {key: "derived" for key in KNOBS}
    gone = KNOB_SOURCE.replace("def scale(x, factor=2,", "def scale(x, factor,")
    functions, _ = _census(tmp_path, gone, set())
    # put's value moved; scale's factor lost its default.
    assert tool.knob_findings(listed, (), functions) == [
        "src/pkg/mod.py::Store.put(value): listed but moved — bank it (--update)",
        "src/pkg/mod.py::scale(factor): listed but gone — bank it (--update)",
    ]
    assert tool.bank(listed, ()) == {}
    assert tool.knob_findings(tool.bank(listed, ()), (), functions) == []
    # --update only removes entries: an unlisted never-moved default stays a finding.
    assert tool.bank({}, KNOBS) == {}


def test_an_unknown_knob_reason_is_a_finding(tmp_path):
    tool = _tool()
    functions, _ = _census(tmp_path, KNOB_SOURCE, set())
    listed = {KNOBS[0]: "reference", KNOBS[1]: "tests-only"}
    assert tool.knob_findings(listed, KNOBS, functions) == [
        f"{KNOBS[1]}: reason 'tests-only' is not one of "
        + ", ".join(sorted(tool.KNOB_REASONS)),
    ]


def test_check_exits_1_on_an_unlisted_never_moved_default(tmp_path, monkeypatch, capsys):
    """The hook over real calls: ``scale``'s ``factor`` is never moved (a
    finding until listed), ``put``'s ``value`` always is (reported as a
    default only tests could rely on), and ``offset`` moves once."""
    tool = _tool()
    source = KNOB_SOURCE + '''

def run():
    store = Store()
    store.put("k", 1)
    store.drop("k")
    helper()
    scale(1, offset=1)
    scale(2)
'''
    functions, _ = _census(tmp_path, source, set())
    spec = importlib.util.spec_from_file_location("mod", tmp_path / "src" / "pkg" / "mod.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(tool, "SRC_PREFIX", str(tmp_path / "src") + os.sep)
    tool.DEFAULTED.update(site for site, f in functions.items() if f.defaults)
    previous = sys.getprofile()
    sys.setprofile(tool.hook)
    try:
        module.run()
    finally:
        sys.setprofile(previous)
    assert sorted(tool.knob_lines(functions, tool.unmoved).values()) == [
        "src/pkg/mod.py::scale(factor=2)  2 calls",
    ]
    assert sorted(tool.knob_lines(functions, tool.always_moved).values()) == [
        "src/pkg/mod.py::Store.put(value=None)  1 calls",
    ]
    idle, knobs = tmp_path / "idle.json", tmp_path / "knobs.json"
    idle.write_text("{}")  # every function ran
    knobs.write_text("{}")
    monkeypatch.setattr(tool, "RATCHET", idle)
    monkeypatch.setattr(tool, "KNOB_RATCHET", knobs)
    assert tool.verdict(["--check"], functions) == 1
    assert "scale(factor): never moved and not listed" in capsys.readouterr().err
    knobs.write_text(json.dumps({"src/pkg/mod.py::scale(factor)": "reference"}))
    assert tool.verdict(["--check"], functions) == 0


def test_committed_knob_list_names_defaulted_parameters_with_valid_reasons():
    """What can be checked without traffic: each entry names a defaulted
    parameter under src/ and gives a reason from the closed set."""
    tool = _tool()
    with open(os.path.join(ROOT, "tools", "knob_ratchet.json"), encoding="utf-8") as handle:
        listed = json.load(handle)
    defined = tool.defined_knobs(tool.defined_functions())
    assert sorted(key for key in listed if key not in defined) == []
    assert sorted(key for key, reason in listed.items() if reason not in tool.KNOB_REASONS) == []
