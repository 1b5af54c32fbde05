"""The AXML document: an XML document plus its embedded service calls."""

from __future__ import annotations

from typing import List, Optional

from repro.axml.service_call import ServiceCall
from repro.query.ast import SelectQuery
from repro.xmlstore.names import SC_NAME
from repro.xmlstore.nodes import Document
from repro.xmlstore.parser import parse_document
from repro.xmlstore.serializer import pretty, serialize


class AXMLDocument:
    """Wraps a :class:`~repro.xmlstore.nodes.Document` with AXML semantics.

    The wrapper discovers embedded service calls, decides which calls a
    query needs (lazy materialization, §3.1) and exposes the document to
    the transactional layer.  It owns no state beyond the document.
    """

    def __init__(self, document: Document, name: Optional[str] = None):
        self.document = document
        if name:
            self.document.name = name

    @classmethod
    def from_xml(cls, xml_text: str, name: str = "") -> "AXMLDocument":
        """Parse AXML text into a wrapped document."""
        document = parse_document(xml_text, name=name)
        if not name and document.root is not None:
            document.name = document.root.name.local
        return cls(document)

    @property
    def name(self) -> str:
        return self.document.name

    # -- service-call discovery ------------------------------------------------

    def service_calls(self) -> List[ServiceCall]:
        """All embedded service calls, in document order.

        Calls inside another call's machinery — its parameter list or a
        §3.2 handler's replica — are *excluded*: they are materialized
        as part of their owner (or invoked by recovery), not
        independently.  This is ``//axml:sc`` read off the structural
        index, not a walk of the document.
        """
        root = self.document.root
        if root is None:
            return []
        index = self.document.index
        postings = index.postings(SC_NAME.local).values()
        candidates = [element for element in postings if element.name == SC_NAME]
        return [ServiceCall(element) for element in index.order_ranks(candidates, root)]

    def calls_for_query(self, query: SelectQuery) -> List[ServiceCall]:
        """Lazy-materialization set: calls whose results the query needs.

        §3.1: lazy evaluation "implies that only those embedded service
        calls … are materialized whose results are required for
        evaluating the query".  A call is required when

        * its declared (or inferred) result-element name appears among
          the names the query touches — e.g. query A
          (``p/grandslamswon``) needs ``getGrandSlamsWonbyYear`` but not
          ``getPoints`` — **and**
        * the call sits inside an element the query's source path can
          actually bind, so calls embedded in unrelated items are left
          unmaterialized.
        """
        needed = set(query.required_names())
        if not needed:
            return []
        calls = self.service_calls()
        if not calls:
            return []
        source_names = self._source_names(query)
        scope_ids = self._source_scope_ids(query)
        selected: List[ServiceCall] = []
        for call in calls:
            names = set(call.result_names)
            if not names:
                continue
            if names & source_names:
                # The call's results may contain the binding elements
                # themselves (a distributed fragment holding //book): it
                # must be materialized before the source can bind.
                selected.append(call)
                continue
            if not (names & needed):
                continue
            if scope_ids is not None and not self._in_scope(call, scope_ids):
                continue
            selected.append(call)
        return selected

    @staticmethod
    def _source_names(query: SelectQuery):
        from repro.query.ast import NodeRef

        if isinstance(query.source, NodeRef):
            return set()
        return set(query.source.child_names())

    def _source_scope_ids(self, query: SelectQuery):
        """Node ids of the query source's candidate bindings (None =
        unknown scope, fall back to name-only matching)."""
        from repro.query.ast import NodeRef

        if isinstance(query.source, NodeRef):
            from repro.xmlstore.nodes import NodeId

            node_id = NodeId.parse(query.source.node_id_text)
            if not self.document.has_node(node_id):
                return set()
            return {node_id}
        try:
            bindings = query.source.evaluate(self.document)
        except Exception:
            return None
        return {node.node_id for node in bindings}

    @staticmethod
    def _in_scope(call: ServiceCall, scope_ids) -> bool:
        element = call.element
        if element.node_id in scope_ids:
            return True
        return any(anc.node_id in scope_ids for anc in element.ancestors())

    def continuous_calls(self) -> List[ServiceCall]:
        """Calls with a ``frequency`` attribute (subscription services, §3.3d)."""
        return [call for call in self.service_calls() if call.frequency is not None]

    # -- convenience ---------------------------------------------------------------

    def to_xml(self) -> str:
        return serialize(self.document)

    def to_pretty(self) -> str:
        return pretty(self.document)

    def __repr__(self) -> str:
        return (
            f"AXMLDocument({self.name!r}, size={self.document.size()}, "
            f"calls={len(self.service_calls())})"
        )
