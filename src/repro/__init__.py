"""repro — reproduction of *Atomicity for P2P based XML Repositories*
(Biswas & Kim, ICDE 2007).

A from-scratch ActiveXML stack (XML store, query/update language, AXML
engine, web-service layer, simulated P2P network) carrying the paper's
transactional framework: dynamic compensation construction, nested and
peer-independent recovery, and disconnection handling via active-peer
chaining.

Quickstart
----------
The :mod:`repro.api` facade (``Cluster`` → ``Session`` →
``Transaction``) is the documented entry point:

>>> from repro.api import Cluster
>>> cluster = Cluster()
>>> _ = cluster.add_peer("AP1")
>>> doc = cluster.host_document("AP1", "<Shop><items/></Shop>", name="Shop")
>>> txn = cluster.session("AP1").transaction()
>>> _ = txn.submit('<action type="insert">'
...     '<data><item>42</item></data>'
...     '<location>Select s from s in Shop//items;</location></action>')
>>> txn.abort()   # dynamic compensation undoes the insert
True
>>> doc.to_xml()
'<Shop><items/></Shop>'

``Transaction`` is also a context manager (commit on clean exit, abort
on exception), and :meth:`Cluster.scheduler` attaches the concurrent
multi-transaction engine.  See ``examples/`` for full scenarios and
``DESIGN.md`` for the module inventory.
"""

__version__ = "1.0.0"

from repro.errors import (
    CompensationError,
    PeerDisconnected,
    QueryError,
    ReproError,
    ServiceFault,
    TransactionError,
    XmlError,
)
from repro.xmlstore import Document, Element, NodeId, parse_document, serialize
from repro.xmlstore.path import parse_path
from repro.query import parse_action, parse_select
from repro.axml import AXMLDocument, MaterializationEngine, ServiceCall
from repro.services import (
    DelegatingService,
    FunctionService,
    QueryService,
    ServiceDescriptor,
    UpdateService,
)
from repro.p2p import (
    AXMLPeer,
    FailureInjector,
    PeerChain,
    ReplicationManager,
    SimNetwork,
)
from repro.txn import (
    CompensationPlan,
    OperationLog,
    Transaction,
    TransactionContext,
    analyze_sphere,
    compensate_records,
)
from repro.txn.recovery import DISCONNECT_FAULT, FaultPolicy
from repro.outcome import Outcome
from repro.api import Cluster, Session

__all__ = [
    # facade (repro.api)
    "Cluster",
    "Session",
    "Outcome",
    "__version__",
    # errors
    "ReproError",
    "XmlError",
    "QueryError",
    "ServiceFault",
    "PeerDisconnected",
    "TransactionError",
    "CompensationError",
    # xml
    "Document",
    "Element",
    "NodeId",
    "parse_document",
    "serialize",
    "parse_path",
    # query
    "parse_select",
    "parse_action",
    # axml
    "AXMLDocument",
    "MaterializationEngine",
    "ServiceCall",
    # services
    "ServiceDescriptor",
    "QueryService",
    "UpdateService",
    "FunctionService",
    "DelegatingService",
    # p2p
    "SimNetwork",
    "AXMLPeer",
    "PeerChain",
    "FailureInjector",
    "ReplicationManager",
    # txn
    "Transaction",
    "TransactionContext",
    "OperationLog",
    "CompensationPlan",
    "compensate_records",
    "analyze_sphere",
    "FaultPolicy",
    "DISCONNECT_FAULT",
]
