"""Deliberate protocol breakages that prove the chaos oracle can fail.

Each mutation disables one piece of the paper's atomicity machinery and
trips a distinct oracle kind:

* ``skip_undo``: the first compensation loses its newest entry
  -> ``compensation_missing``;
* ``double_apply``: the first insert is applied twice, logged once
  -> ``effect_duplicated``;
* ``stale_chain``: one peer never forgets one transaction's share, chain
  view included -> ``orphan_chain``;
* ``crash_skip_undo``: the first restart loses its newest on-disk entry
  (recovery must replay the on-disk WAL) -> ``compensation_missing`` +
  ``wal_tail_inconsistent``.

:func:`mutated` patches one method at class level for a ``with`` block.
A mutation fires once per run, keyed on that run's own network-scoped
object, so every :func:`~repro.chaos.run_chaos` in the block (a
shrink's replays, a sweep's cells, the parent's re-run of a failing
cell) breaks the same way; forked sweep workers inherit the patch.
``skip_undo``, ``double_apply`` and ``crash_skip_undo`` act only on
provider peers (``AP*``); ``stale_chain`` keeps the first context with a
chain view that ``TransactionManager.forget`` — the one way a share
leaves, called by the commit decision for most shares and by settlement
for the rest — meets, through that call and every later one for the same
peer and transaction.
"""

from contextlib import contextmanager

import pytest

from repro.p2p.peer import AXMLPeer
from repro.query.update import apply_action
from repro.txn.durable_wal import DurableWal
from repro.txn.manager import TransactionManager

MUTATIONS = ("skip_undo", "double_apply", "stale_chain", "crash_skip_undo")


def _provider(peer_id: str) -> bool:
    return peer_id.startswith("AP")


@contextmanager
def mutated(mutation: str):
    """Run the block with *mutation* (one of :data:`MUTATIONS`) installed."""
    if mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}; use one of {MUTATIONS}")
    # id -> run object; holding the object keeps its id from being reused.
    fired = {}

    def once(run) -> bool:
        if id(run) in fired:
            return False
        fired[id(run)] = run
        return True

    with pytest.MonkeyPatch.context() as patch:
        if mutation == "skip_undo":
            orig_abort = TransactionManager.abort_local

            def abort_local(self, txn_id):
                entries = self.log.entries_for(txn_id)
                if entries and _provider(self.peer_id) and once(self.spans):
                    self.log._entries.remove(entries[-1])
                return orig_abort(self, txn_id)

            patch.setattr(TransactionManager, "abort_local", abort_local)
        elif mutation == "double_apply":
            orig_record = AXMLPeer.record_changes

            def record_changes(self, records, document_name, action_xml, action):
                orig_record(self, records, document_name, action_xml, action)
                if records and _provider(self.peer_id) and once(self.network):
                    apply_action(self.get_axml_document(document_name).document, action)

            patch.setattr(AXMLPeer, "record_changes", record_changes)
        elif mutation == "stale_chain":
            orig_forget = TransactionManager.forget
            kept = {}  # id(spans) -> the (peer, txn) whose share stays

            def forget(self, txn_id):
                context = self.contexts.get(txn_id)
                if context is not None and context.chain is not None and once(self.spans):
                    kept[id(self.spans)] = (self.peer_id, txn_id)
                if kept.get(id(self.spans)) == (self.peer_id, txn_id):
                    return  # the deliberate stale entry
                orig_forget(self, txn_id)

            patch.setattr(TransactionManager, "forget", forget)
        else:
            orig_reload = DurableWal.reload

            def reload(self):
                entries = orig_reload(self)
                if entries and _provider(self.peer_id) and once(self.metrics):
                    return entries[:-1]
                return entries

            patch.setattr(DurableWal, "reload", reload)
        yield
