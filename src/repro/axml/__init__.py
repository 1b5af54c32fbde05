"""The ActiveXML engine: documents with embedded service calls.

Rebuilt from scratch (the paper's substrate [19], the ObjectWeb AXML
Java implementation, is obsolete).  The engine implements the semantics
§1 and §3.1 rely on:

* ``axml:sc`` elements embedded in documents, with ``replace``/``merge``
  result modes and optional ``frequency`` (continuous services);
* parameters that may themselves be service calls (local nesting);
* invocation results that may be static XML *or another service call*
  (nested invocation);
* lazy materialization — every query materializes only the calls whose
  results it needs (:func:`~repro.axml.materialize.run_action`), which is
  why query compensation must be constructed dynamically; eager
  materialization (``MaterializationEngine.materialize_all``) is E8's
  baseline;
* fault handlers ``axml:catch`` / ``axml:catchAll`` / ``axml:retry``
  (§3.2), the hooks of nested forward recovery.
"""

from repro.axml.service_call import Param, ServiceCall, install_service_call
from repro.axml.document import AXMLDocument
from repro.axml.faults import parse_fault_handlers
from repro.axml.materialize import (
    MaterializationEngine,
    MaterializationReport,
    MaterializedCall,
)

__all__ = [
    "Param",
    "ServiceCall",
    "install_service_call",
    "AXMLDocument",
    "parse_fault_handlers",
    "MaterializationEngine",
    "MaterializationReport",
    "MaterializedCall",
]
