"""The unified entry point: ``Cluster`` → ``Session`` → ``Transaction``.

Everything a test, benchmark or example needs to drive the simulated
AXML P2P system lives behind three small classes:

* :class:`Cluster` — builds and owns a deployment: the network (with
  its failure injector and replication manager) and the peers.
  Classmethods construct the paper's canonical deployments
  (:meth:`Cluster.atplist`, :meth:`Cluster.fig1`, :meth:`Cluster.fig2`,
  :meth:`Cluster.from_topology`); :meth:`Cluster.scheduler` attaches the
  concurrent transaction engine.
* :class:`Session` — a client's view of one peer.
* :class:`Transaction` — a live root transaction, usable as a context
  manager: commit on clean exit, abort on exception.

Quickstart::

    from repro.api import Cluster

    cluster = Cluster.atplist()
    with cluster.session("AP1").transaction() as txn:
        txn.submit('<action type="query"><location>'
                   "Select p/points from p in ATPList//player;"
                   "</location></action>")
    # exiting the with-block committed the transaction

Seeded chaos runs are configured by one frozen
:class:`~repro.chaos.ChaosConfig` (re-exported here) and run through
:func:`repro.chaos.run_chaos` / :func:`repro.chaos.chaos_sweep`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.axml.document import AXMLDocument
from repro.axml.materialize import OperationOutcome
from repro.chaos.runner import ChaosConfig
from repro.outcome import Outcome
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import DelegatingService, FunctionService, Service
from repro.sim.scenarios import (
    ATPLIST_XML,
    FIG1_TOPOLOGY,
    FIG2_TOPOLOGY,
    _marker_action,
    _peer_document,
)
from repro.sim.scheduler import TransactionScheduler
from repro.sim.workload import tree_peers

__all__ = [
    "Cluster",
    "Session",
    "Transaction",
    "Outcome",
    "ChaosConfig",
    "add_run_arguments",
    "add_output_arguments",
]

#: peer → list of (child_peer, method) it invokes, the topology shape.
Topology = Dict[str, List[Tuple[str, str]]]


class Transaction:
    """A live root transaction on one peer, with context-manager ergonomics.

    Created through :meth:`Session.transaction`.  On clean ``with`` exit
    the transaction commits; if the block raises, it aborts (backward
    recovery) and the exception propagates.  :meth:`commit` /
    :meth:`abort` may also be called explicitly — the exit handler is
    idempotent and will not double-finish.
    """

    def __init__(self, peer: AXMLPeer):
        self._peer = peer
        self.txn = peer.begin_transaction()
        self._done = False

    # -- identity -------------------------------------------------------

    @property
    def txn_id(self) -> str:
        return self.txn.txn_id

    # -- work -----------------------------------------------------------

    def submit(self, action) -> OperationOutcome:
        """Execute one local operation (an ``UpdateAction`` or its XML)."""
        return self._peer.submit(self.txn_id, action)

    def invoke(
        self,
        target_peer: str,
        method_name: str,
        params: Optional[Dict[str, str]] = None,
    ) -> Outcome:
        """Invoke a service on another peer; returns a unified Outcome.
        Caller-side fault policies are the origin peer's
        (:meth:`AXMLPeer.set_fault_policy`)."""
        fragments = self._peer.invoke(self.txn_id, target_peer, method_name, params)
        return Outcome(tuple(fragments), provider_peer=target_peer)

    # -- finishing ------------------------------------------------------

    def commit(self) -> None:
        """Origin-side commit.  Under OCC this may raise
        :class:`~repro.txn.occ.ValidationConflict`; the transaction is
        then already aborted and compensated — retry with a fresh one."""
        self._done = True
        self._peer.commit(self.txn_id)

    def abort(self) -> bool:
        """Origin-initiated abort; True if compensation fully ran."""
        self._done = True
        return self._peer.abort(self.txn_id)

    # -- context manager ------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._done:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False  # never suppress

    def __repr__(self) -> str:
        state = "finished" if self._done else "active"
        return f"Transaction({self.txn_id!r} @ {self._peer.peer_id}, {state})"


class Session:
    """A client's handle on one peer of a cluster."""

    def __init__(self, cluster: "Cluster", peer_id: str):
        self._cluster = cluster
        self.peer_id = peer_id

    @property
    def peer(self) -> AXMLPeer:
        return self._cluster.peer(self.peer_id)

    def transaction(self) -> Transaction:
        """Begin a transaction with this peer as origin."""
        return Transaction(self.peer)

    def __repr__(self) -> str:
        return f"Session({self.peer_id!r})"


class Cluster:
    """One simulated AXML deployment: network + peers + services.

    Build empty and populate (:meth:`add_peer`, :meth:`host_document`,
    :meth:`host_service`), or use a canonical constructor
    (:meth:`atplist`, :meth:`fig1`, :meth:`fig2`,
    :meth:`from_topology`).
    """

    def __init__(self):
        self.network = SimNetwork()
        #: invocation topology: peer → list of (child_peer, method).
        self.topology: Topology = {}

    # -- building -------------------------------------------------------

    def add_peer(self, peer_id: str, **peer_kwargs) -> AXMLPeer:
        """Create and register a peer; keyword args go to AXMLPeer."""
        return AXMLPeer(peer_id, self.network, **peer_kwargs)

    def host_document(
        self,
        peer_id: str,
        document: Union[AXMLDocument, str],
        name: Optional[str] = None,
    ) -> AXMLDocument:
        """Host a document (an AXMLDocument, or its XML text + name)."""
        if isinstance(document, str):
            if name is None:
                raise ValueError("hosting XML text needs an explicit name=")
            document = AXMLDocument.from_xml(document, name=name)
        self.peer(peer_id).host_document(document)
        self.replication.register_primary(document.name, peer_id)
        return document

    def host_service(self, peer_id: str, service: Service) -> Service:
        self.peer(peer_id).host_service(service)
        self.replication.register_service(service.descriptor.method_name, peer_id)
        return service

    # -- access ---------------------------------------------------------

    def peer(self, peer_id: str) -> AXMLPeer:
        try:
            return self.peers[peer_id]
        except KeyError:
            raise KeyError(
                f"cluster has no peer {peer_id!r}; add_peer() it first"
            )

    def session(self, peer_id: str) -> Session:
        """A client session on one peer — the transaction entry point."""
        self.peer(peer_id)  # fail fast on unknown peers
        return Session(self, peer_id)

    @property
    def peers(self) -> Dict[str, AXMLPeer]:
        return self.network.peers

    @property
    def replication(self):
        return self.network.replication

    @property
    def injector(self):
        return self.network.injector

    @property
    def metrics(self):
        return self.network.metrics

    @property
    def spans(self):
        return self.network.spans

    @property
    def clock(self):
        return self.network.clock

    # -- driving --------------------------------------------------------

    def run_until(self, deadline: float) -> int:
        """Fire scheduled events up to *deadline* virtual seconds."""
        return self.network.events.run_until(deadline)

    def run_all(self) -> int:
        """Fire every pending scheduled event."""
        return self.network.events.run_all()

    def scheduler(self, **scheduler_kwargs) -> TransactionScheduler:
        """A concurrent multi-transaction scheduler over this cluster."""
        return TransactionScheduler(self.network, **scheduler_kwargs)

    def run_topology(self) -> Tuple[Transaction, Optional[Exception]]:
        """Begin a transaction at AP1 and fire its topology invocations.

        Returns ``(transaction, error)`` — *error* is the exception that
        reached the origin when recovery ended backward, else None.  The
        transaction is left open on success so the caller decides
        commit/abort.
        """
        handle = Transaction(self.peer("AP1"))
        error: Optional[Exception] = None
        try:
            for child, method in self.topology.get("AP1", []):
                handle.invoke(child, method, {})
        except Exception as exc:  # noqa: BLE001 - driver reports it
            error = exc
        return handle, error

    # -- canonical deployments -----------------------------------------

    @classmethod
    def atplist(cls) -> "Cluster":
        """The §3.1 running example: AP1 hosts ATPList.xml; AP2 serves
        getPoints; AP3 serves getGrandSlamsWonbyYear."""
        cluster = cls()
        for peer_id in ("AP1", "AP2", "AP3"):
            cluster.add_peer(peer_id)
        cluster.host_document(
            "AP1", AXMLDocument.from_xml(ATPLIST_XML, name="ATPList")
        )
        cluster.host_service(
            "AP2",
            FunctionService(
                ServiceDescriptor("getPoints", params=("name",)),
                body=lambda params: ["<points>890</points>"],
            ),
        )
        cluster.host_service(
            "AP3",
            FunctionService(
                ServiceDescriptor("getGrandSlamsWonbyYear", params=("name", "year")),
                body=lambda params: [
                    f'<grandslamswon year="{params["year"]}">A, F</grandslamswon>'
                ],
            ),
        )
        return cluster

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        chaining: bool = True,
        chain_scope: str = "immediate",
        parent_watch_interval: Optional[float] = None,
        extra_peers: Sequence[str] = (),
    ) -> "Cluster":
        """A cluster for an arbitrary invocation topology.

        Every mentioned peer gets a document ``D<i>`` and a delegating
        service ``S<i>`` (local marker insert, then child invocations in
        topology order); AP1 is the one super peer; ``extra_peers``
        creates idle peers for recovery/replica experiments.
        """
        cluster = cls()
        peer_ids = tree_peers(topology)
        for extra in extra_peers:
            if extra not in peer_ids:
                peer_ids.append(extra)

        for peer_id in peer_ids:
            cluster.add_peer(
                peer_id,
                super_peer=peer_id == "AP1",
                chaining=chaining,
                chain_scope=chain_scope,
                parent_watch_interval=parent_watch_interval,
            )
            cluster.host_document(
                peer_id,
                AXMLDocument.from_xml(
                    _peer_document(peer_id), name=f"D{peer_id[2:]}"
                ),
            )

        for peer_id in peer_ids:
            method = f"S{peer_id[2:]}"
            cluster.host_service(
                peer_id,
                DelegatingService(
                    ServiceDescriptor(method, target_document=f"D{peer_id[2:]}"),
                    delegations=topology.get(peer_id, []),
                    local_action_template=_marker_action(peer_id),
                    extra_fragments=(
                        f'<done by="{peer_id}" method="{method}"/>',
                    ),
                ),
            )
        cluster.topology = dict(topology)
        return cluster

    @classmethod
    def fig1(cls, **kwargs) -> "Cluster":
        """Fig. 1's deployment (6 peers, nested invocations)."""
        return cls.from_topology(FIG1_TOPOLOGY, **kwargs)

    @classmethod
    def fig2(cls, **kwargs) -> "Cluster":
        """Fig. 2's deployment (AP1 is a super peer, per the chain)."""
        return cls.from_topology(FIG2_TOPOLOGY, **kwargs)

    def __repr__(self) -> str:
        return f"Cluster(peers={sorted(self.peers)})"


# -- shared argparse builders (one flag surface for every CLI) -------------

def add_run_arguments(parser) -> None:
    """Install the :class:`~repro.chaos.ChaosConfig` flags on *parser*."""
    parser.add_argument("--seed", type=int, default=ChaosConfig.seed)
    parser.add_argument("--txns", type=int, default=ChaosConfig.txns)
    parser.add_argument(
        "--fault-rate", type=float, default=ChaosConfig.fault_rate,
        help="planned faults per transaction (default %(default)s)")
    parser.add_argument("--providers", type=int, default=ChaosConfig.providers)
    parser.add_argument("--origins", type=int, default=ChaosConfig.origins)
    parser.add_argument(
        "--concurrency", type=int, default=ChaosConfig.concurrency)
    parser.add_argument(
        "--ops", type=int, default=ChaosConfig.ops_per_txn,
        help="operations per transaction")
    parser.add_argument(
        "--invoke-fraction", type=float, default=ChaosConfig.invoke_fraction,
        help="fraction of ops that are remote invocations")
    parser.add_argument(
        "--handlers", action="store_true",
        help="install retry fault policies (forward recovery)")
    parser.add_argument(
        "--crash-rate", type=float, default=ChaosConfig.crash_rate,
        help="planned crash-and-restart faults per transaction "
             "(implies --durability)")
    parser.add_argument(
        "--durability", action="store_true",
        help="give providers an on-disk WAL (crash recovery)")
    parser.add_argument(
        "--checkpoint-every", type=int, default=ChaosConfig.checkpoint_every,
        dest="checkpoint_every", metavar="N",
        help="WAL checkpoint every N appended entries "
             "(bounds recovery replay; implies --durability)")
    parser.add_argument(
        "--wal-batch", type=int, default=ChaosConfig.wal_batch,
        dest="wal_batch", metavar="N",
        help="WAL group-commit batch size (implies --durability "
             "when > 1)")
    parser.add_argument(
        "--replicas", type=int, default=ChaosConfig.replicas, metavar="R",
        help="replicas per provider document/service "
             "(WAL shipping + deterministic failover)")
    parser.add_argument(
        "--ship-batch", type=int, default=ChaosConfig.ship_batch,
        dest="ship_batch", metavar="N",
        help="committed WAL entries batched per ship message")
    parser.add_argument(
        "--sharding", action="store_true",
        help="consistent-hash shard placement with live migration "
             "(docs/SHARDING.md)")
    parser.add_argument(
        "--shard-spares", type=int, default=ChaosConfig.shard_spares,
        dest="shard_spares", metavar="K",
        help="spare peers that join the ring mid-run and trigger "
             "shard rebalancing (needs --sharding)")


def add_output_arguments(parser) -> None:
    """Install the shared artifact flag (``--json-out``) on *parser*."""
    parser.add_argument(
        "--json-out", metavar="PATH",
        help="also write the deterministic result as a JSON artifact")

