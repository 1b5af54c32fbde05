"""Hierarchical lock-based concurrency control — the [5]/[6] baseline.

§2: "[5] and [6] consider lock-based concurrency control protocols
customized for XML repositories. … However, due to the 'active' nature
of AXML documents, lock-based protocols are not well suited for AXML
systems."

This module implements a classical multi-granularity lock manager over
the node tree (IS/IX/S/X with intention locks along the root path) so
the ablation bench can *measure* that argument: on passive documents a
query takes shared locks and readers scale; on active documents a query
must take exclusive locks wherever lazy materialization may rewrite
result regions — so read-read concurrency collapses exactly as the
paper predicts.

The manager is no-wait: a conflicting request fails immediately
(:class:`LockConflict`), and the caller aborts/retries.  That keeps the
single-threaded simulation honest — there is nobody to block.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Tuple

from repro.errors import TransactionError
from repro.xmlstore.nodes import Element, NodeId


class LockMode(enum.Enum):
    IS = "IS"
    IX = "IX"
    S = "S"
    X = "X"


#: Classical multi-granularity compatibility matrix.
_COMPATIBLE: Dict[Tuple[LockMode, LockMode], bool] = {
    (LockMode.IS, LockMode.IS): True,
    (LockMode.IS, LockMode.IX): True,
    (LockMode.IS, LockMode.S): True,
    (LockMode.IS, LockMode.X): False,
    (LockMode.IX, LockMode.IS): True,
    (LockMode.IX, LockMode.IX): True,
    (LockMode.IX, LockMode.S): False,
    (LockMode.IX, LockMode.X): False,
    (LockMode.S, LockMode.IS): True,
    (LockMode.S, LockMode.IX): False,
    (LockMode.S, LockMode.S): True,
    (LockMode.S, LockMode.X): False,
    (LockMode.X, LockMode.IS): False,
    (LockMode.X, LockMode.IX): False,
    (LockMode.X, LockMode.S): False,
    (LockMode.X, LockMode.X): False,
}

#: Lock-strength order for upgrades.
_STRENGTH = {LockMode.IS: 0, LockMode.IX: 1, LockMode.S: 2, LockMode.X: 3}


class LockConflict(TransactionError):
    """A lock request conflicted with another transaction's holding."""

    def __init__(self, txn_id: str, node_id: NodeId, mode: LockMode, holder: str):
        super().__init__(
            f"{txn_id} cannot take {mode.value} on {node_id!r}: "
            f"held incompatibly by {holder}"
        )
        self.holder = holder


def compatible(a: LockMode, b: LockMode) -> bool:
    """True when a requested mode coexists with a held mode."""
    return _COMPATIBLE[(a, b)]


class LockManager:
    """No-wait multi-granularity lock manager for one document."""

    def __init__(self) -> None:
        #: node id → {txn id → strongest mode held}
        self._table: Dict[NodeId, Dict[str, LockMode]] = {}
        self.acquisitions = 0
        self.conflicts = 0

    # -- primitives ---------------------------------------------------------

    def acquire(self, txn_id: str, node_id: NodeId, mode: LockMode) -> None:
        """Grant or raise :class:`LockConflict`; upgrades are in place."""
        holders = self._table.setdefault(node_id, {})
        current = holders.get(txn_id)
        if current is not None and _STRENGTH[current] >= _STRENGTH[mode]:
            return  # already strong enough
        for other_txn, other_mode in holders.items():
            if other_txn == txn_id:
                continue
            if not compatible(mode, other_mode):
                self.conflicts += 1
                raise LockConflict(txn_id, node_id, mode, other_txn)
        holders[txn_id] = mode
        self.acquisitions += 1

    def release_all(self, txn_id: str) -> int:
        """Strict two-phase: everything releases at commit/abort."""
        released = 0
        for holders in self._table.values():
            if holders.pop(txn_id, None) is not None:
                released += 1
        return released

    # -- tree-aware helpers ----------------------------------------------------

    def lock_subtree(
        self, txn_id: str, target: Element, mode: LockMode
    ) -> None:
        """Intention locks up the root path, *mode* on the subtree root.

        The standard protocol of [5]/[6]: S needs IS on every ancestor,
        X needs IX.
        """
        intention = LockMode.IS if mode in (LockMode.IS, LockMode.S) else LockMode.IX
        ancestors = list(target.ancestors())
        for ancestor in reversed(ancestors):
            self.acquire(txn_id, ancestor.node_id, intention)
        self.acquire(txn_id, target.node_id, mode)

    def lock_for_read(
        self, txn_id: str, targets: Iterable[Element], active: bool
    ) -> None:
        """Lock query targets.

        ``active=False``: plain S locks — readers coexist.
        ``active=True``: the AXML case — evaluating the query may
        materialize embedded calls *inside the read region*, rewriting
        result nodes; a correct lock protocol must take X there, which is
        the paper's "not well suited" argument made concrete.
        """
        mode = LockMode.X if active else LockMode.S
        for target in targets:
            self.lock_subtree(txn_id, target, mode)

    def lock_for_update(self, txn_id: str, targets: Iterable[Element]) -> None:
        for target in targets:
            self.lock_subtree(txn_id, target, LockMode.X)
