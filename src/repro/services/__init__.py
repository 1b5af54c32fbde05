"""The (simulated) web-service layer.

The paper's services are SOAP endpoints described by WSDL; transactions
see them as invocable operations that return XML results or raise named
faults.  This package rebuilds that contract in-process:

* :mod:`repro.services.descriptor` — service descriptors (name,
  required parameters, target document);
* :mod:`repro.services.service` — query/update/function/delegating
  services executing against hosted AXML documents;
* :mod:`repro.services.registry` — the per-peer service registry
  ("AXML services are also exposed as a regular Web service", §1).
"""

from repro.services.descriptor import ServiceDescriptor
from repro.services.service import (
    DelegatingService,
    FunctionService,
    QueryService,
    Service,
    ServiceHost,
    ServiceResponse,
    UpdateService,
)
from repro.services.registry import ServiceRegistry

__all__ = [
    "ServiceDescriptor",
    "DelegatingService",
    "FunctionService",
    "QueryService",
    "Service",
    "ServiceHost",
    "ServiceResponse",
    "UpdateService",
    "ServiceRegistry",
]
