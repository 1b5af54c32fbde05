"""The simulated P2P substrate: peers, network, chains, replication.

"In true P2P style, we consider that the set of peers in the AXML system
keeps changing with peers joining and leaving the system arbitrarily"
(§1).  This package provides the network the transactional protocols
run on: synchronous service invocation with virtual-time latency,
asynchronous notifications, ping-based liveness, scripted disconnection
injection, super peers, document/service replication, and the
active-peer chains of §3.3.
"""

from repro.p2p.chain import PeerChain
from repro.p2p.messages import (
    AbortMessage,
    DisconnectNotice,
    InvokeRequest,
    RedirectedResult,
)
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.p2p.replication import ReplicationManager
from repro.p2p.failure import FailureInjector
from repro.p2p.distribution import (
    FragmentPlacement,
    distribute_fragment,
    remote_subquery,
)
from repro.p2p.sharding import PlacementDirectory, ShardCoordinator, ShardRing

__all__ = [
    "PeerChain",
    "AbortMessage",
    "DisconnectNotice",
    "InvokeRequest",
    "RedirectedResult",
    "SimNetwork",
    "AXMLPeer",
    "ReplicationManager",
    "FailureInjector",
    "FragmentPlacement",
    "distribute_fragment",
    "remote_subquery",
    "PlacementDirectory",
    "ShardCoordinator",
    "ShardRing",
]
