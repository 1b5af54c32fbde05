"""Per-peer service registry.

Each AXML peer hosts a set of services and "provide[s] a user interface
to query/update the AXML documents stored locally" (§1).  The registry
is the lookup surface the P2P layer dispatches incoming invocations
through, and the discovery surface replication uses to mirror services.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ServiceNotFound
from repro.services.service import Service


class ServiceRegistry:
    """Name → service mapping for one peer."""

    def __init__(self, peer_id: str = ""):
        self.peer_id = peer_id
        self._services: Dict[str, Service] = {}

    def register(self, service: Service) -> Service:
        """Register (or overwrite) a service under its method name."""
        self._services[service.method_name] = service
        return service

    def lookup(self, method_name: str) -> Service:
        try:
            return self._services[method_name]
        except KeyError:
            raise ServiceNotFound(
                f"peer {self.peer_id!r} hosts no service {method_name!r}"
            )

    def has(self, method_name: str) -> bool:
        return method_name in self._services

    def __len__(self) -> int:
        return len(self._services)
