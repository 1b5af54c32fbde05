"""Service implementations executing against hosted AXML documents.

Services are pure with respect to the peer machinery: they receive a
:class:`ServiceHost` capability object and return a
:class:`ServiceResponse` carrying result fragments plus the change
records the transactional layer logs.  Four concrete kinds cover the
paper's needs:

* :class:`QueryService` — an AXML service "defined as queries … over
  AXML documents" (§1), with lazy materialization of embedded calls
  (:class:`SubqueryService` is the one whose parameter is the query);
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
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.axml.document import AXMLDocument
from repro.axml.materialize import OperationOutcome, Resolver, run_action
from repro.errors import ReproError, ServiceError
from repro.query.ast import (
    ActionType,
    BooleanCondition,
    Comparison,
    Condition,
    SelectQuery,
    UpdateAction,
)
from repro.query.parser import iter_comparisons, parse_action, parse_select
from repro.query.update import ChangeRecord
from repro.services.descriptor import ServiceDescriptor
from repro.xmlstore.fragment import Fragment, FragmentNode
from repro.xmlstore.serializer import escape_text, serialize


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
        action: UpdateAction,
    ) -> None:
        """Log tree changes the moment they happen, with the executed
        *action*.

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


#: Compilation parses a template once with its i-th hole filled by
#: ``zzhole<i>zz`` and looks for where each of these sentinels landed.
_MARK = "zzhole"
_SENTINEL = re.compile(_MARK + r"(\d+)zz")


class _Holes:
    """The mapping :class:`string.Template` substitutes from while a
    template compiles: names the holes in order of occurrence."""

    def __init__(self) -> None:
        self.names: List[str] = []

    def __getitem__(self, name: str) -> str:
        self.names.append(name)
        return f"{_MARK}{len(self.names) - 1}zz"


def _with_literals(condition: Condition, literals: Dict[int, str]) -> Condition:
    """*condition* with each comparison *literals* keys (by identity)
    comparing against the value it maps to."""
    if isinstance(condition, Comparison):
        literal = literals.get(id(condition))
        return condition if literal is None else Comparison(condition.left, condition.op, literal)
    return BooleanCondition(
        condition.op, tuple(_with_literals(part, literals) for part in condition.parts)
    )


def _holes_in(root: FragmentNode) -> List[int]:
    """The holes of a ``<data>`` fragment that are whole values: an
    attribute value, or an element's only text run."""
    found, pending = [], [root]
    while pending:
        node = pending.pop()
        values = list(node.attributes.values())
        if len(node.children) == 1 and node.children[0].__class__ is str:
            values.append(node.children[0])
        found.extend(int(match[1]) for match in map(_SENTINEL.fullmatch, values) if match)
        pending.extend(child for child in node.children if child.__class__ is not str)
    return found


def _bound(root: FragmentNode, values: List[str]) -> FragmentNode:
    """A copy of *root* with each hole's value in place: as it is in an
    attribute, trimmed as the parser keeps character data (no run at all
    when that leaves it empty)."""

    def fill(text: str) -> str:
        match = _SENTINEL.fullmatch(text)
        return text if match is None else values[int(match[1])]

    def attributes(node: FragmentNode) -> Dict[str, str]:
        return {key: fill(value) for key, value in node.attributes.items()}

    top = FragmentNode(root.name, attributes(root))
    pending = [(root, top)]
    while pending:
        source, target = pending.pop()
        for child in source.children:
            if child.__class__ is str:
                text = fill(child).strip()
                if text:
                    target.new_text(text)
            else:
                pending.append((child, target.new_element(child.name, attributes(child))))
    return top


class ActionTemplate:
    """An ``<action>`` document with ``$name`` holes, parsed once.

    A hole stands for a whole value: an attribute value or an element's
    character data below ``<data>``, or a where-literal of the
    ``<location>``.  Anywhere else (a name, a path step, the document,
    ``type``/``anchor``/``rebind``, part of a value) it raises
    :class:`ServiceError` here, as does a template that does not parse.

    :meth:`bind` binds every value (``str()`` of it) as data: into a copy
    of each ``<data>`` fragment that has a hole (character data trimmed
    as the parser keeps it), and as the literal of a new comparison in
    the compiled Select.  The bound action is what ``parse_action``
    reads from its ``to_xml()`` text, which nothing renders until a byte
    edge asks for it.
    """

    def __init__(self, text: str):
        self.text = text
        names: List[str] = []
        try:
            if _MARK in text or "&#" in text:  # a character reference could spell a sentinel
                raise ValueError("template text collides with the sentinels")
            holes = _Holes()
            names = holes.names
            action = parse_action(string.Template(text).substitute(holes))
        except (ValueError, ReproError) as exc:
            message = _SENTINEL.sub(lambda match: "$" + names[int(match[1])], str(exc))
            raise ServiceError(f"service template does not parse: {message}") from exc
        holes_of = [[] if f.root is None else _holes_in(f.root) for f in action.data]
        found = {hole for holes in holes_of for hole in holes}
        #: Per fragment, whether a bind copies it (it has a hole) or shares it.
        self._holed = [bool(holes) for holes in holes_of]
        self._literals: List[Tuple[int, str]] = []  # (id of a compiled comparison, its hole)
        for comparison in iter_comparisons(action.location.where):
            match = _SENTINEL.fullmatch(comparison.literal)
            if match:
                found.add(int(match[1]))
                self._literals.append((id(comparison), names[int(match[1])]))
        stray = [name for i, name in enumerate(names) if i not in found]
        if stray:
            raise ServiceError(
                f"template hole ${stray[0]} is not a whole value: an attribute value or "
                "character data below <data>, or a where-literal"
            )
        self._action = action
        self._hole_names = names

    def bind(self, params: Dict[str, str]) -> UpdateAction:
        values: List[str] = []
        for name in self._hole_names:
            if name not in params:
                raise ServiceError(f"template parameter {name!r} was not provided")
            values.append(str(params[name]))
        template = self._action
        location = template.location
        if self._literals:
            raw = dict(zip(self._hole_names, values))
            literals = {comparison: raw[name] for comparison, name in self._literals}
            where = _with_literals(location.where, literals)
            location = SelectQuery(location.select_paths, location.var, location.source, where)
        data = tuple(
            Fragment(_bound(fragment.root, values)) if holed else fragment
            for fragment, holed in zip(template.data, self._holed)
        )
        return UpdateAction(template.action_type, location, data, template.anchor, template.rebind)


def _run_local(
    action: UpdateAction,
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
        host.record_changes(records, document_name, action)
    selected = outcome.query_result.all_nodes() if query else ()
    return outcome, ServiceResponse(
        fragments=[serialize(node) for node in selected],
        records=records,
        document_name=document_name,
        nodes_affected=outcome.nodes_affected,
    )


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
        outcome, response = _run_local(self.template.bind(params), self.descriptor, host)
        result = outcome.update_result
        if result is not None:
            response.fragments = [
                f'<inserted id="{node_id!r}"/>' for node_id in result.inserted_ids
            ] or [f'<updated count="{result.target_count}"/>']
        return response


class QueryService(UpdateService):
    """An AXML query service over one hosted document.

    ``template`` is a Select statement with ``$param`` placeholders, e.g.
    ``Select p/points from p in ATPList//player where p/name/lastname = $name;``,
    compiled once as the ``<location>`` of a query action: a parameter
    binds as a where-literal, never as query text.  Execution lazily
    materializes the embedded calls the query needs — so even a *query*
    service produces change records (§3.1).
    """

    def __init__(self, descriptor: ServiceDescriptor, template: str):
        action = f'<action type="query"><location>{escape_text(template)}</location></action>'
        super().__init__(descriptor, action)


class SubqueryService(Service):
    """The one service whose parameter is a query: sub-query shipping.

    §1's option (a) sends a Select to the fragment's host; ``q`` carries
    its text, parsed here and evaluated over the descriptor's document.
    """

    def _run(self, params: Dict[str, str], host: ServiceHost) -> ServiceResponse:
        action = UpdateAction(ActionType.QUERY, parse_select(params["q"]))
        return _run_local(action, self.descriptor, host)[1]


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
    parameters are forwarded.  A ``local_action_template`` (or None)
    performs local work first (so the peer has something to compensate,
    as in Fig. 1's intermediate peers).
    """

    def __init__(
        self,
        descriptor: ServiceDescriptor,
        delegations: Sequence[Tuple[str, str]],
        local_action_template: Optional[str],
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
            action = self.local_action_template.bind(params)
            response = _run_local(action, self.descriptor, host)[1]
        for target_peer, method_name in self.delegations:
            response.fragments.extend(host.invoke_remote(target_peer, method_name, params))
        response.fragments.extend(self.extra_fragments)
        return response
