"""Replay the committed corpus of shrunk chaos schedules (ROADMAP item 1).

Each file under ``tests/data/chaos_corpus/`` is a repro file written by
:func:`repro.chaos.shrink_and_report` for a seed the oracle once found
dirty, and every one must now replay clean: the corpus is a gate, so a
change that brings a cause back fails here.

* ``handlers_<seed>.json`` — bucket 1(a), §3.2 forward recovery alone:
  ``benchmarks/e2e/workloads.py``'s ``_LADDER_BASE`` with
  ``handlers=True, fault_rate=0.04``, 40 transactions, in memory, no
  WAL, replica, shard or crash.  Each shrinks to one ``service_fault``
  at ``after_execute`` on an inner provider whose "Abort T" cascade
  reached a peer holding another invocation's frame of the same
  transaction; undoing that peer's whole share lost a committed marker.
* ``failover_<seed>.json`` — bucket 1(c), failover alone: ``_REPL``
  with ``fault_rate=0.04, crash_rate=0.02``, 40 transactions.
"""

from pathlib import Path

import pytest

from repro.chaos import replay_repro_file

CORPUS = Path(__file__).parent / "data" / "chaos_corpus"

HANDLERS = sorted(CORPUS.glob("handlers_*.json"))
FAILOVER = sorted(CORPUS.glob("failover_*.json"))


def test_corpus_is_present():
    assert (len(HANDLERS), len(FAILOVER)) == (10, 4)


@pytest.mark.parametrize("path", [
    pytest.param(p, id=p.stem) for p in HANDLERS + FAILOVER
])
def test_replay_is_clean(path):
    result = replay_repro_file(str(path))
    assert result.ok, [v.to_dict() for v in result.violations]
