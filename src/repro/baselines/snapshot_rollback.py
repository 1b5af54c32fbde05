"""Traditional undo via whole-document snapshots.

The classical alternative to compensation: before the transaction
touches a document, copy it; abort restores the copy.  It is always
exact — but experiment E3 measures the price the paper's approach
avoids: snapshot cost scales with *document size*, while the operation
log scales with *touched data*.  It is also unusable across autonomous
peers (a peer cannot snapshot another peer's repository), which is the
deeper reason the paper builds on compensation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.axml.document import AXMLDocument
from repro.xmlstore.nodes import Document
from repro.xmlstore.serializer import serialize


@dataclass
class SnapshotStats:
    """Cost accounting for one transaction's snapshots."""

    snapshots_taken: int = 0
    nodes_copied: int = 0
    approx_bytes: int = 0


class SnapshotRollback:
    """Per-transaction document snapshots with restore-on-abort."""

    def __init__(self) -> None:
        #: (txn_id, document name) → pre-transaction copy.
        self._snapshots: Dict[tuple, Document] = {}
        self.stats = SnapshotStats()

    def guard(self, txn_id: str, axml_document: AXMLDocument) -> None:
        """Snapshot the document before the transaction's first touch.

        Idempotent per (transaction, document): only the first call
        copies.
        """
        key = (txn_id, axml_document.name)
        if key in self._snapshots:
            return
        document = axml_document.document
        copy = document.clone_tree()
        self._snapshots[key] = copy
        self.stats.snapshots_taken += 1
        self.stats.nodes_copied += document.size()
        self.stats.approx_bytes += len(serialize(document, include_ids=True))

    def rollback(self, txn_id: str, axml_document: AXMLDocument) -> bool:
        """Restore the pre-transaction state; True if a snapshot existed.

        The restore swaps the document's root for the snapshot's (cloned
        back with preserved ids) so existing references to the Document
        object stay valid.
        """
        key = (txn_id, axml_document.name)
        snapshot = self._snapshots.pop(key, None)
        if snapshot is None:
            return False
        axml_document.document.restore_from(snapshot)
        return True
