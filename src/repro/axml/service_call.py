"""The embedded service call (``axml:sc``) model.

An ``axml:sc`` element looks like the paper's §1/§3.1 examples::

    <axml:sc mode="replace" serviceNameSpace="getPoints"
             serviceURL="axml://peer1" methodName="getPoints">
        <axml:params>
            <axml:param name="name"><axml:value>Roger Federer</axml:value></axml:param>
        </axml:params>
        <points>475</points>                    <!-- current results -->
        <axml:catch faultName="A">…</axml:catch>
    </axml:sc>

Children partition into three regions: the parameter list, fault
handlers, and everything else — the *result region*, holding the current
invocation results.  ``mode="replace"`` swaps the region on each
invocation; ``mode="merge"`` appends new results as siblings of the old
ones (§1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ServiceCallError
from repro.xmlstore.names import (
    PARAM_NAME,
    PARAMS_NAME,
    SC_NAME,
    VALUE_NAME,
    is_axml_meta_name,
)
from repro.xmlstore.nodes import Element, Node
from repro.xmlstore.parser import parse_fragment
from repro.xmlstore.serializer import serialize

#: Valid values of the ``mode`` attribute.
MODES = ("replace", "merge")


@dataclass
class Param:
    """A service-call parameter.

    ``value`` is the static text when the parameter is literal;
    ``nested_call`` is set instead when the parameter is itself a service
    call (local nesting, §1) that must be materialized first.
    """

    name: str
    value: Optional[str] = None
    nested_call: Optional["ServiceCall"] = None

    @property
    def is_nested(self) -> bool:
        return self.nested_call is not None


class ServiceCall:
    """A live view over an ``axml:sc`` element.

    The view holds no state of its own: every accessor reads the element,
    so concurrent updates through the document are always visible.
    """

    def __init__(self, element: Element):
        if element.name != SC_NAME:
            raise ServiceCallError(
                f"element <{element.name.text}> is not an axml:sc"
            )
        self.element = element

    # -- attributes -----------------------------------------------------

    @property
    def mode(self) -> str:
        mode = self.element.attributes.get("mode", "replace")
        if mode not in MODES:
            raise ServiceCallError(f"unknown service-call mode {mode!r}")
        return mode

    @property
    def service_url(self) -> str:
        """Where the service lives — in our P2P layer, ``axml://<peer>``."""
        return self.element.attributes.get("serviceURL", "")

    @property
    def method_name(self) -> str:
        name = self.element.attributes.get("methodName", "")
        if not name:
            raise ServiceCallError("axml:sc is missing methodName")
        return name

    @property
    def frequency(self) -> Optional[float]:
        """Invocation period in simulated seconds, for continuous services."""
        raw = self.element.attributes.get("frequency")
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError:
            raise ServiceCallError(f"bad frequency {raw!r}")

    @property
    def result_name(self) -> Optional[str]:
        """Declared result-element name (drives lazy materialization).

        Falls back to the name of an existing result child when the
        attribute is absent — the paper's examples always carry previous
        results (``<points>475</points>``), so inference usually works.
        """
        declared = self.element.attributes.get("resultName")
        if declared:
            return declared
        results = self.result_nodes()
        for node in results:
            if isinstance(node, Element):
                return node.name.local
        return None

    @property
    def fetch_once(self) -> bool:
        """True for storage-like calls (distributed-fragment placeholders):
        once results are present they are authoritative, and
        materialization is skipped instead of refreshing them."""
        return self.element.attributes.get("fetchOnce", "") == "true"

    @property
    def result_names(self) -> List[str]:
        """All element names this call's results may contain.

        Read from the ``resultNames`` attribute (space-separated) when
        present — distributed-fragment placeholders declare every name
        inside the fragment they replaced — else the singular
        :attr:`result_name`.
        """
        declared = self.element.attributes.get("resultNames")
        if declared:
            return declared.split()
        single = self.result_name
        return [single] if single is not None else []

    @property
    def peer_hint(self) -> str:
        """The peer id extracted from ``serviceURL`` (``axml://peerX``)."""
        url = self.service_url
        if url.startswith("axml://"):
            return url[len("axml://") :]
        return url

    # -- regions ----------------------------------------------------------

    def params_element(self) -> Optional[Element]:
        return self.element.first_child(PARAMS_NAME)

    def params(self) -> List[Param]:
        """Parse the parameter list, detecting nested service calls."""
        holder = self.params_element()
        if holder is None:
            return []
        out: List[Param] = []
        for param_el in holder.find_children(PARAM_NAME):
            name = param_el.attributes.get("name", "")
            if not name:
                raise ServiceCallError("axml:param is missing its name")
            nested = param_el.first_child(SC_NAME)
            if nested is not None:
                out.append(Param(name, nested_call=ServiceCall(nested)))
                continue
            value_el = param_el.first_child(VALUE_NAME)
            value = value_el.text_content() if value_el is not None else param_el.text_content()
            out.append(Param(name, value=value))
        return out

    def result_nodes(self) -> List[Node]:
        """The current result region: children outside params/handlers."""
        return [
            child
            for child in self.element.children
            if not (isinstance(child, Element) and is_axml_meta_name(child.name))
        ]

    def nested_result_calls(self) -> List["ServiceCall"]:
        """Service calls sitting in the result region (nested invocation)."""
        return [
            ServiceCall(node)
            for node in self.result_nodes()
            if isinstance(node, Element) and node.name == SC_NAME
        ]

    # -- identity -----------------------------------------------------------

    @property
    def call_id(self):
        """The sc element's node id — stable identity for logging."""
        return self.element.node_id

    def describe(self) -> str:
        return (
            f"{self.method_name}@{self.peer_hint or 'local'}"
            f"[mode={self.mode}, id={self.call_id!r}]"
        )

    def __repr__(self) -> str:
        return f"ServiceCall({self.describe()})"


def install_service_call(
    parent: Element,
    method_name: str,
    service_url: str = "",
    mode: str = "replace",
    params: Optional[Dict[str, str]] = None,
    initial_result_xml: Optional[Sequence[str]] = None,
    result_name: Optional[str] = None,
) -> ServiceCall:
    """Create and attach an ``axml:sc`` element under *parent*.

    This is the programmatic construction path used by examples and
    workload generators; hand-written AXML text goes through the XML
    parser instead.
    """
    if mode not in MODES:
        raise ServiceCallError(f"unknown service-call mode {mode!r}")
    attributes = {
        "mode": mode,
        "methodName": method_name,
        "serviceNameSpace": method_name,
        "serviceURL": service_url,
    }
    if result_name:
        attributes["resultName"] = result_name
    sc_element = parent.new_element(SC_NAME, attributes)
    if params:
        params_el = sc_element.new_element(PARAMS_NAME)
        for name, value in params.items():
            param_el = params_el.new_element(PARAM_NAME, {"name": name})
            param_el.new_element(VALUE_NAME).new_text(value)
    document = parent.document
    for fragment in initial_result_xml or ():
        for node in parse_fragment(fragment, document):
            sc_element.append(node)
    return ServiceCall(sc_element)
