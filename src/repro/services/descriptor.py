"""WSDL-like service descriptors.

Every AXML service "is also exposed as a regular Web service (with a
WSDL description file)" (§1).  The descriptor is our WSDL stand-in: it
names the operation, its parameters, the result element, and — for the
transactional layer — whether the service is compensatable and which
document it operates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ServiceError


@dataclass(frozen=True)
class ParamSpec:
    """One declared parameter of a service operation."""

    name: str
    required: bool = True
    description: str = ""


@dataclass(frozen=True)
class ServiceDescriptor:
    """Description of one service operation.

    ``kind`` is ``query``, ``update``, ``function`` (a generic web
    service) or ``delegating`` (a service that invokes other peers —
    distributed nesting, §1).  ``compensatable`` tells the transactional
    layer whether a compensating operation can be constructed; generic
    function services default to non-compensatable unless they declare
    an inverse.
    """

    method_name: str
    kind: str
    params: Sequence[ParamSpec] = field(default_factory=tuple)
    result_name: str = "result"
    target_document: str = ""
    namespace: str = ""
    compensatable: bool = True
    description: str = ""
    #: Simulated execution latency in seconds (read by the P2P layer).
    latency: float = 0.01

    def validate_params(self, provided: dict) -> None:
        """Raise :class:`ServiceError` if required parameters are missing."""
        missing = [p.name for p in self.params if p.required and p.name not in provided]
        if missing:
            raise ServiceError(
                f"service {self.method_name!r} is missing required parameters: "
                f"{', '.join(missing)}"
            )
