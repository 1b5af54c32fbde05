"""Unit tests for the service layer (repro.services)."""

import pytest

from repro.axml.document import AXMLDocument
from repro.outcome import Outcome
from repro.errors import ServiceError, ServiceFault, ServiceNotFound
from repro.services.descriptor import ParamSpec, ServiceDescriptor
from repro.services.registry import ServiceRegistry
from repro.services.service import (
    DelegatingService,
    FunctionService,
    QueryService,
    UpdateService,
    substitute,
)


class StubHost:
    """Standalone ServiceHost used by the unit tests."""

    def __init__(self, documents=None, resolver=None):
        self.documents = documents or {}
        self.resolver = resolver
        self.recorded = []
        self.invocations = []
        self.rolls = iter([0.9] * 100)

    def get_axml_document(self, name):
        return self.documents[name]

    def materialization_resolver(self):
        return self.resolver

    def invoke_remote(self, target_peer, method_name, params):
        self.invocations.append((target_peer, method_name))
        return [f"<from peer='{target_peer}'/>"]

    def record_changes(self, records, document_name, action_xml, action):
        self.recorded.append((document_name, len(records)))

    def random(self):
        return next(self.rolls)


@pytest.fixture
def shop_host():
    doc = AXMLDocument.from_xml(
        "<Shop><item id='1'><price>10</price></item></Shop>", name="Shop"
    )
    return StubHost(documents={"Shop": doc}), doc


class TestDescriptor:
    def test_validate_params(self):
        d = ServiceDescriptor("m", kind="function", params=(ParamSpec("a"),))
        d.validate_params({"a": "1"})
        with pytest.raises(ServiceError):
            d.validate_params({})

    def test_optional_params(self):
        d = ServiceDescriptor(
            "m", kind="function", params=(ParamSpec("a", required=False),)
        )
        d.validate_params({})


class TestSubstitute:
    def test_fills_placeholders(self):
        assert substitute("hello $name", {"name": "world"}) == "hello world"

    def test_missing_param(self):
        with pytest.raises(ServiceError):
            substitute("$missing", {})


class TestQueryService:
    def test_executes_template(self, shop_host):
        host, _ = shop_host
        service = QueryService(
            ServiceDescriptor("getPrice", kind="query", params=(ParamSpec("id"),)),
            "Select i/price from i in Shop//item where i/price > $id;",
        )
        response = service.execute({"id": "1"}, host)
        assert response.fragments == ["<price>10</price>"]
        assert response.document_name == "Shop"

    def test_materializes_lazily(self):
        doc = AXMLDocument.from_xml(
            "<Shop><item><axml:sc mode='replace' methodName='getStock'>"
            "<stock>1</stock></axml:sc></item></Shop>",
            name="Shop",
        )
        host = StubHost(
            documents={"Shop": doc},
            resolver=lambda call, params: Outcome(["<stock>5</stock>"]),
        )
        service = QueryService(
            ServiceDescriptor("getStock", kind="query"),
            "Select i/stock from i in Shop//item;",
        )
        response = service.execute({}, host)
        assert response.fragments == ["<stock>5</stock>"]
        assert len(response.records) == 2  # delete old + insert new
        assert host.recorded  # logged through the host

    def test_bad_evaluation_mode(self):
        with pytest.raises(ServiceError):
            QueryService(
                ServiceDescriptor("q", kind="query"), "Select i from i in S//x;",
                evaluation="psychic",
            )


class TestUpdateService:
    def test_applies_action(self, shop_host):
        host, doc = shop_host
        service = UpdateService(
            ServiceDescriptor("setPrice", kind="update", params=(ParamSpec("price"),)),
            '<action type="replace"><data><price>$price</price></data>'
            "<location>Select i/price from i in Shop//item;</location></action>",
        )
        response = service.execute({"price": "99"}, host)
        assert "99" in doc.to_xml()
        assert response.records[0].kind == "replace"
        assert host.recorded == [("Shop", 1)]

    def test_insert_reports_ids(self, shop_host):
        host, _ = shop_host
        service = UpdateService(
            ServiceDescriptor("addTag", kind="update"),
            '<action type="insert"><data><tag/></data>'
            "<location>Select i from i in Shop//item;</location></action>",
        )
        response = service.execute({}, host)
        assert response.fragments[0].startswith("<inserted id=")


class TestFunctionService:
    def test_body_runs(self):
        service = FunctionService(
            ServiceDescriptor("hello", kind="function"),
            body=lambda params: [f"<hi to='{params.get('who', '')}'/>"],
        )
        response = service.execute({"who": "x"}, StubHost())
        assert response.fragments == ["<hi to='x'/>"]

    def test_fault_injection(self):
        service = FunctionService(
            ServiceDescriptor("flaky", kind="function"),
            body=lambda params: ["<ok/>"],
            fault_name="Boom",
            fault_probability=1.0,
        )
        host = StubHost()
        host.rolls = iter([0.0])
        with pytest.raises(ServiceFault) as exc:
            service.execute({}, host)
        assert exc.value.fault_name == "Boom"

    def test_no_fault_when_roll_high(self):
        service = FunctionService(
            ServiceDescriptor("flaky", kind="function"),
            body=lambda params: ["<ok/>"],
            fault_name="Boom",
            fault_probability=0.5,
        )
        host = StubHost()
        host.rolls = iter([0.9])
        assert service.execute({}, host).fragments == ["<ok/>"]


class TestDelegatingService:
    def test_delegates_in_order(self, shop_host):
        host, _ = shop_host
        service = DelegatingService(
            ServiceDescriptor("combo", kind="delegating"),
            delegations=[("P2", "a"), ("P3", "b")],
        )
        response = service.execute({}, host)
        assert host.invocations == [("P2", "a"), ("P3", "b")]
        assert response.remote_invocations == [("P2", "a"), ("P3", "b")]
        assert len(response.fragments) == 2

    def test_local_work_logged_before_delegation(self, shop_host):
        host, doc = shop_host
        service = DelegatingService(
            ServiceDescriptor("combo", kind="delegating", target_document="Shop"),
            delegations=[("P2", "a")],
            local_action_template=(
                '<action type="insert"><data><mark/></data>'
                "<location>Select i from i in Shop//item;</location></action>"
            ),
        )
        service.execute({}, host)
        assert host.recorded == [("Shop", 1)]
        assert "mark" in doc.to_xml()

    def test_extra_fragments(self, shop_host):
        host, _ = shop_host
        service = DelegatingService(
            ServiceDescriptor("combo", kind="delegating"),
            delegations=[],
            extra_fragments=("<done/>",),
        )
        assert service.execute({}, host).fragments == ["<done/>"]


class TestRegistry:
    def test_register_lookup(self):
        registry = ServiceRegistry("P1")
        service = FunctionService(
            ServiceDescriptor("m", kind="function"), body=lambda p: []
        )
        registry.register(service)
        assert registry.lookup("m") is service
        assert registry.has("m")
        assert len(registry) == 1

    def test_missing_service(self):
        with pytest.raises(ServiceNotFound):
            ServiceRegistry("P1").lookup("ghost")

