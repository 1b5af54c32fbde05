"""tools/traffic_census.py: idle code is a ratchet."""

import importlib.util
import json
import os
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
    assert tool.banked(listed, functions, entered) == {}
    # --update only removes entries: an idle function it finds unlisted stays a finding.
    functions, entered = _census(tmp_path, SOURCE, {"Store.put"})
    assert tool.banked(listed, functions, entered) == listed


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
