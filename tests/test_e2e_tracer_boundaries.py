"""The BENCH_E2E tracer's boundaries still resolve.

``benchmarks/e2e/tracing.py`` wraps program entry points by name
(``vars(owner)[name]``), so a rename or a move under ``src/`` breaks the
benchmark while every program test still passes.  Installing and
removing the wrappers, without running a workload, catches that here.
"""

import importlib

from benchmarks.e2e.tracing import BOUNDARIES, Tracer


def _defined(module_name, owner_name, attribute):
    module = importlib.import_module(module_name)
    owner = getattr(module, owner_name) if owner_name else module
    return vars(owner)[attribute]


def test_tracer_installs_and_removes_every_boundary():
    originals = {
        (module_name, owner_name, attribute): _defined(module_name, owner_name, attribute)
        for groups in BOUNDARIES.values()
        for module_name, owner_name, attributes in groups
        for attribute in attributes
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert len(tracer.boundary_names) == len(originals) == 69
        for key, original in originals.items():
            assert _defined(*key) is not original, key
    finally:
        tracer.uninstall()
    for key, original in originals.items():
        assert _defined(*key) is original, key
