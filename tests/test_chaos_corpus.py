"""Replay the committed corpus of shrunk chaos schedules (ROADMAP item 1).

Each file under ``tests/data/chaos_corpus/`` is a repro file written by
:func:`repro.chaos.shrink_and_report` for a seed the oracle found dirty.
A schedule whose cause is not fixed yet is an ``xfail(strict=True)``
that asserts ``result.ok``: the fix shows up as an XPASS (drop the mark
then), and so does any refactor that silently changes behaviour on it.

``handlers_<seed>.json`` is the minimal §3.2 forward-recovery shape,
bucket 1(a): ``benchmarks/e2e/workloads.py``'s ``_LADDER_BASE`` with
``handlers=True, fault_rate=0.04``, 40 transactions, in memory, no WAL,
replica, shard or crash.  Every one shrinks to a single ``service_fault``
at ``after_execute`` on an inner provider, and a committed transaction
misses a marker below it (``effect_missing``).
"""

from pathlib import Path

import pytest

from repro.chaos import replay_repro_file

CORPUS = Path(__file__).parent / "data" / "chaos_corpus"

#: Bucket 1(a): §3.2 forward recovery alone — cause not yet fixed.
FORWARD_RECOVERY = pytest.mark.xfail(
    strict=True, reason="ROADMAP 1(a): §3.2 forward recovery loses a committed effect"
)
HANDLERS = sorted(CORPUS.glob("handlers_*.json"))


def test_corpus_is_present():
    assert len(HANDLERS) == 10


@pytest.mark.parametrize(
    "path", [pytest.param(p, id=p.stem, marks=FORWARD_RECOVERY) for p in HANDLERS]
)
def test_replay_is_clean(path):
    result = replay_repro_file(str(path))
    assert result.ok, [v.to_dict() for v in result.violations]
