"""Service implementations executing against hosted AXML documents.

Services are pure with respect to the peer machinery: they receive a
:class:`ServiceHost` capability object and return a
:class:`ServiceResponse` carrying result fragments plus the change
records the transactional layer logs.  Four concrete kinds cover the
paper's needs:

* :class:`QueryService` — an AXML service "defined as queries … over
  AXML documents" (§1), with lazy materialization of embedded calls;
* :class:`UpdateService` — ditto for updates; the provider can derive
  the compensating-service definition from the returned records (§3.2);
* :class:`FunctionService` — a generic web service backed by a Python
  callable (it faults by raising :class:`~repro.errors.ServiceFault`);
* :class:`DelegatingService` — a service that invokes services on other
  peers while executing (distributed nesting, §1): the shape of Fig. 1's
  S2→S3→S5 chains.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.axml.document import AXMLDocument
from repro.axml.materialize import OperationOutcome, Resolver, run_action
from repro.errors import ReproError, ServiceError
from repro.obs.prof import PROF
from repro.query.ast import ActionType, UpdateAction
from repro.query.parser import action_from_element, parse_action, parse_select
from repro.query.update import ChangeRecord
from repro.services.descriptor import ServiceDescriptor
from repro.xmlstore.nodes import Text
from repro.xmlstore.parser import parse_document
from repro.xmlstore.serializer import serialize


class ServiceHost(Protocol):
    """What a service may ask of the peer hosting it."""

    def get_axml_document(self, name: str) -> AXMLDocument:
        """The named local document; raises if not hosted here."""
        ...

    def materialization_resolver(self) -> Optional[Resolver]:
        """Resolver for embedded-call materialization (may be None)."""
        ...

    def invoke_remote(
        self, target_peer: str, method_name: str, params: Dict[str, str]
    ) -> List[str]:
        """Invoke a service on another peer; returns result fragments."""
        ...

    def record_changes(
        self,
        records: Sequence[ChangeRecord],
        document_name: str,
        action_xml: str,
        action: UpdateAction,
    ) -> None:
        """Log tree changes the moment they happen, with the executed
        *action* and its ``to_xml()`` text *action_xml*.

        Services call this *before* continuing with further work (e.g.
        delegations), so a failure later in the execution still finds the
        earlier changes in the log — otherwise backward recovery could
        not compensate them (§3.1's logging requirement).
        """
        ...


@dataclass
class ServiceResponse:
    """What one service execution produced."""

    fragments: List[str] = field(default_factory=list)
    records: List[ChangeRecord] = field(default_factory=list)
    document_name: str = ""
    nodes_affected: int = 0


class Service:
    """Base class: descriptor + parameter validation."""

    def __init__(self, descriptor: ServiceDescriptor):
        self.descriptor = descriptor

    @property
    def method_name(self) -> str:
        return self.descriptor.method_name

    def execute(self, params: Dict[str, str], host: ServiceHost) -> ServiceResponse:
        self.descriptor.validate_params(params)
        return self._run(dict(params), host)

    def _run(self, params: Dict[str, str], host: ServiceHost) -> ServiceResponse:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.method_name!r})"


def substitute(template: str, params: Dict[str, str]) -> str:
    """Fill ``$name`` placeholders in a query/action template.

    Raises :class:`ServiceError` on unreferenced placeholders so a typo
    in a workload template fails loudly, not as an empty result.
    """
    try:
        return string.Template(template).substitute(params)
    except KeyError as exc:
        raise ServiceError(f"template parameter {exc.args[0]!r} was not provided")
    except ValueError as exc:
        raise ServiceError(f"malformed template: {exc}")


#: Compilation parses a template once with its i-th hole filled by
#: ``zzhole<i>zz`` and looks for where each of these sentinels landed.
_MARK = "zzhole"
_SENTINEL = re.compile(_MARK + r"(\d+)zz")

#: The values a compiled template binds: one word of characters that
#: are inert in XML character data and in a quoted attribute value
#: alike, so putting one where a sentinel stood cannot change the parse.
#: Deliberately narrow — whatever it turns away (spaces, markup, quotes,
#: non-ASCII, the empty string) is still served, through the text path.
_inert = re.compile(r"[A-Za-z0-9_.:-]+").fullmatch


def _bindable(params: Dict[str, str], names: Iterable[str]) -> bool:
    """Whether every hole has an inert value."""
    for name in names:
        value = params.get(name)
        if not isinstance(value, str) or _inert(value) is None:
            return False
    return True


class _Holes:
    """The mapping :class:`string.Template` substitutes from while a
    template compiles: names the holes in order of occurrence."""

    def __init__(self) -> None:
        self.names: List[str] = []

    def __getitem__(self, name: str) -> str:
        self.names.append(name)
        return f"{_MARK}{len(self.names) - 1}zz"


def _fill_with_sentinels(text: str) -> Tuple[str, List[str]]:
    """*text* with hole *i* replaced by sentinel *i*, and the holes' names."""
    if _MARK in text or "&#" in text:  # a character reference could spell a sentinel
        raise ValueError("template text collides with the sentinels")
    holes = _Holes()
    return string.Template(text).substitute(holes), holes.names


def _format_of(rendered: str, names: Sequence[str]) -> str:
    """Canonical text with sentinels → a ``%(name)s`` format string."""
    return _SENTINEL.sub(
        lambda match: f"%({names[int(match[1])]})s", rendered.replace("%", "%%")
    )


class ActionTemplate:
    """An ``<action>`` document with ``$name`` holes, parsed once.

    :meth:`bind` returns what ``parse_action(substitute(text, params))``
    builds, plus that action's ``to_xml()`` text for the log.  When every
    hole sits where its value is data — in an attribute value or
    character data below ``<data>`` — and every value is inert (see
    ``_inert``), the data fragments and the logged text are
    ``%``-formatted from canonical text split at the holes, and the
    location is shared by every bound action.  Anything else — a hole in
    the ``<location>`` or in markup, a value with a space or a quote in
    it, a template that does not parse — takes the text path, errors
    included.
    """

    def __init__(self, text: str):
        self.text = text
        self._action: Optional[UpdateAction] = None  # None: text only
        try:
            filled, names = _fill_with_sentinels(text)
            root = parse_document(filled, name="action").root
            action = action_from_element(root)
        except (ValueError, ReproError):
            return  # binding raises what this text has always raised
        found: List[int] = []
        for data_element in root.find_children("data"):
            for node in islice(data_element.iter(), 1, None):  # below <data>
                values = [node.value] if isinstance(node, Text) else node.attributes.values()
                found.extend(int(i) for value in values for i in _SENTINEL.findall(value))
        if sorted(found) == list(range(len(names))):  # each hole once, below <data>
            self._action = action
            self._hole_names = names
            self._names = tuple(dict.fromkeys(names))
            self._data_formats = [_format_of(fragment, names) for fragment in action.data]
            self._xml_format = _format_of(action.to_xml(), names)

    def bind(self, params: Dict[str, str]) -> Tuple[UpdateAction, str]:
        template = self._action
        if template is not None and _bindable(params, self._names):
            PROF.incr("service_template_bound")
            prototypes = None  # some fragment is not clonable: parse this action's text
            if None not in template._prototypes[0]:  # holes filled while cloning
                names = self._hole_names
                fill = partial(_SENTINEL.sub, lambda match: params[names[int(match[1])]])
                prototypes = (template._prototypes[0], fill)
            action = UpdateAction(
                template.action_type,
                template.location,
                tuple(fragment % params for fragment in self._data_formats),
                template.anchor,
                template.rebind,
                prototypes,
            )
            return action, self._xml_format % params
        PROF.incr("service_template_text")
        action = parse_action(substitute(self.text, params))
        return action, action.to_xml()


def _run_local(
    action: UpdateAction,
    action_xml: str,
    descriptor: ServiceDescriptor,
    host: ServiceHost,
) -> Tuple[OperationOutcome, ServiceResponse]:
    """Run *action* on its document and log the changes before anything
    else happens: a later delegation may fail, and the local work must
    already be compensatable.  A query materializes the embedded calls it
    needs (§3.1) and answers with the nodes it selected."""
    document_name = descriptor.target_document or action.location.document_name
    query = action.action_type is ActionType.QUERY
    resolver = host.materialization_resolver() if query else None  # only a query reads it
    outcome = run_action(action, host.get_axml_document(document_name), resolver)
    records = outcome.change_records()
    if records:
        host.record_changes(records, document_name, action_xml, action)
    selected = outcome.query_result.all_nodes() if query else ()
    return outcome, ServiceResponse(
        fragments=[serialize(node) for node in selected],
        records=records,
        document_name=document_name,
        nodes_affected=outcome.nodes_affected,
    )


class QueryService(Service):
    """An AXML query service over one hosted document.

    ``template`` is a Select statement with ``$param`` placeholders, e.g.
    ``Select p/points from p in ATPList//player where p/name/lastname = $name;``.
    Execution lazily materializes the embedded calls the query needs —
    so even a *query* service produces change records (§3.1).
    """

    def __init__(self, descriptor: ServiceDescriptor, template: str):
        super().__init__(descriptor)
        self.template = template

    def _run(self, params: Dict[str, str], host: ServiceHost) -> ServiceResponse:
        action = UpdateAction(ActionType.QUERY, parse_select(substitute(self.template, params)))
        return _run_local(action, action.to_xml(), self.descriptor, host)[1]


class UpdateService(Service):
    """An AXML update service over one hosted document.

    ``template`` is an ``<action type="…">`` document with ``$param``
    placeholders.  The response's records are exactly what the provider
    peer logs — and what it derives the compensating-service definition
    from when peer-independent compensation is on (§3.2).
    """

    def __init__(self, descriptor: ServiceDescriptor, template: str):
        super().__init__(descriptor)
        self.template = ActionTemplate(template)

    def _run(self, params: Dict[str, str], host: ServiceHost) -> ServiceResponse:
        outcome, response = _run_local(*self.template.bind(params), self.descriptor, host)
        result = outcome.update_result
        if result is not None:
            response.fragments = [
                f'<inserted id="{node_id!r}"/>' for node_id in result.inserted_ids
            ] or [f'<updated count="{result.target_count}"/>']
        return response


#: Signature of a function-service body: params → result fragments.
FunctionBody = Callable[[Dict[str, str]], List[str]]


class FunctionService(Service):
    """A generic web service backed by a Python callable.

    The body faults by raising :class:`~repro.errors.ServiceFault`; a
    scripted fault at a chosen point is the
    :class:`~repro.axml.faults.FailureInjector`'s job.
    """

    def __init__(self, descriptor: ServiceDescriptor, body: FunctionBody):
        super().__init__(descriptor)
        self.body = body

    def _run(self, params: Dict[str, str], host: ServiceHost) -> ServiceResponse:
        return ServiceResponse(fragments=list(self.body(params)))


class DelegatingService(Service):
    """A service that invokes services on other peers while executing.

    This produces the paper's distributed nesting: "invocation of a
    service S_X of peer AP2, by peer AP1, may require the peer AP2 to
    invoke another service S_Y of peer AP3 (while executing S_X)" (§1).
    ``delegations`` is an ordered list of ``(target_peer, method_name)``;
    parameters are forwarded.  An optional ``local_action_template``
    performs local work first (so the peer has something to compensate,
    as in Fig. 1's intermediate peers).
    """

    def __init__(
        self,
        descriptor: ServiceDescriptor,
        delegations: Sequence[Tuple[str, str]],
        local_action_template: Optional[str] = None,
        extra_fragments: Sequence[str] = (),
    ):
        super().__init__(descriptor)
        self.delegations = list(delegations)
        self.local_action_template = (
            None if local_action_template is None else ActionTemplate(local_action_template)
        )
        #: Constant result fragments appended to every response (lets
        #: scenario services produce observable, reusable results).
        self.extra_fragments = list(extra_fragments)

    def _run(self, params: Dict[str, str], host: ServiceHost) -> ServiceResponse:
        response = ServiceResponse()
        if self.local_action_template is not None:
            action, action_xml = self.local_action_template.bind(params)
            response = _run_local(action, action_xml, self.descriptor, host)[1]
        for target_peer, method_name in self.delegations:
            response.fragments.extend(host.invoke_remote(target_peer, method_name, params))
        response.fragments.extend(self.extra_fragments)
        return response
