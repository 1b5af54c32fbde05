"""The paper's contribution: relaxed-ACID transactions for AXML systems.

Modules
-------
* :mod:`repro.txn.transaction` — transactions and per-peer transaction
  contexts (§3.2's ``TC_Ax``).
* :mod:`repro.txn.wal` — the operation log: location-query results,
  inserted-node ids, old values — what dynamic compensation reads.
* :mod:`repro.txn.compensation` — §3.1 dynamic compensation construction.
* :mod:`repro.txn.recovery` — §3.2 nested recovery protocol.
* :mod:`repro.txn.peer_independent` — §3.2 peer-independent compensation.
* :mod:`repro.txn.spheres` — §3.3 spheres of atomicity.
* :mod:`repro.txn.manager` — the per-peer transaction manager.

§3.3's disconnection handling (chaining) is peer protocol: it lives on
:class:`repro.p2p.peer.AXMLPeer` over :mod:`repro.p2p.chain`.
"""

from repro.txn.transaction import (
    Transaction,
    TransactionContext,
    TransactionState,
)
from repro.txn.wal import LogEntry, OperationLog
from repro.txn.compensation import (
    compensate_records,
    compensating_actions_for,
    CompensationPlan,
)
from repro.txn.spheres import SphereAnalysis, analyze_sphere

__all__ = [
    "Transaction",
    "TransactionContext",
    "TransactionState",
    "LogEntry",
    "OperationLog",
    "compensate_records",
    "compensating_actions_for",
    "CompensationPlan",
    "SphereAnalysis",
    "analyze_sphere",
]
