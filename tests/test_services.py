"""Unit tests for the service layer (repro.services)."""

import pytest

from repro.axml.document import AXMLDocument
from repro.outcome import Outcome
from repro.errors import ServiceError, ServiceFault, ServiceNotFound
from repro.services.descriptor import ServiceDescriptor
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

    def get_axml_document(self, name):
        return self.documents[name]

    def materialization_resolver(self):
        return self.resolver

    def invoke_remote(self, target_peer, method_name, params):
        self.invocations.append((target_peer, method_name))
        return [f"<from peer='{target_peer}'/>"]

    def record_changes(self, records, document_name, action_xml, action):
        self.recorded.append((document_name, len(records)))


@pytest.fixture
def shop_host():
    doc = AXMLDocument.from_xml(
        "<Shop><item id='1'><price>10</price></item></Shop>", name="Shop"
    )
    return StubHost(documents={"Shop": doc}), doc


class TestDescriptor:
    def test_validate_params(self):
        d = ServiceDescriptor("m", params=("a",))
        d.validate_params({"a": "1"})
        with pytest.raises(ServiceError):
            d.validate_params({})

    def test_optional_params(self):
        # Only the names in ``params`` are required; any other is optional.
        ServiceDescriptor("m").validate_params({})
        ServiceDescriptor("m", params=("a",)).validate_params({"a": "1", "b": "2"})


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
            ServiceDescriptor("getPrice", params=("id",)),
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
            ServiceDescriptor("getStock"),
            "Select i/stock from i in Shop//item;",
        )
        response = service.execute({}, host)
        assert response.fragments == ["<stock>5</stock>"]
        assert len(response.records) == 2  # delete old + insert new
        assert host.recorded  # logged through the host

    def test_bad_evaluation_mode(self):
        with pytest.raises(ServiceError):
            QueryService(
                ServiceDescriptor("q"), "Select i from i in S//x;",
                evaluation="psychic",
            )


class TestUpdateService:
    def test_applies_action(self, shop_host):
        host, doc = shop_host
        service = UpdateService(
            ServiceDescriptor("setPrice", params=("price",)),
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
            ServiceDescriptor("addTag"),
            '<action type="insert"><data><tag/></data>'
            "<location>Select i from i in Shop//item;</location></action>",
        )
        response = service.execute({}, host)
        assert response.fragments[0].startswith("<inserted id=")


class TestFunctionService:
    def test_body_runs(self):
        service = FunctionService(
            ServiceDescriptor("hello"),
            body=lambda params: [f"<hi to='{params.get('who', '')}'/>"],
        )
        response = service.execute({"who": "x"}, StubHost())
        assert response.fragments == ["<hi to='x'/>"]

    def test_fault_injection(self):
        def boom(params):
            raise ServiceFault("Boom", "injected fault in flaky")

        service = FunctionService(ServiceDescriptor("flaky"), body=boom)
        with pytest.raises(ServiceFault) as exc:
            service.execute({}, StubHost())
        assert exc.value.fault_name == "Boom"


class TestDelegatingService:
    def test_delegates_in_order(self, shop_host):
        host, _ = shop_host
        service = DelegatingService(
            ServiceDescriptor("combo"),
            delegations=[("P2", "a"), ("P3", "b")],
        )
        response = service.execute({}, host)
        assert host.invocations == [("P2", "a"), ("P3", "b")]
        assert len(response.fragments) == 2

    def test_local_work_logged_before_delegation(self, shop_host):
        host, doc = shop_host
        service = DelegatingService(
            ServiceDescriptor("combo", target_document="Shop"),
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
            ServiceDescriptor("combo"),
            delegations=[],
            extra_fragments=("<done/>",),
        )
        assert service.execute({}, host).fragments == ["<done/>"]


class TestRegistry:
    def test_register_lookup(self):
        registry = ServiceRegistry("P1")
        service = FunctionService(
            ServiceDescriptor("m"), body=lambda p: []
        )
        registry.register(service)
        assert registry.lookup("m") is service
        assert registry.has("m")
        assert len(registry) == 1

    def test_missing_service(self):
        with pytest.raises(ServiceNotFound):
            ServiceRegistry("P1").lookup("ghost")



POINTS_OF_FEDERER = (
    "Select p/points from p in ATPList//player where p/name/lastname = Federer;"
)


@pytest.mark.parametrize("kind", ["query", "delegating"])
def test_a_local_query_materializes_logs_and_compensates(kind):
    """§3.1 for every service kind that runs a local query: the embedded
    ``getPoints`` call is materialized first (890, not the stale 475),
    the materialization is logged as one ``service`` entry, and an
    abort restores the document."""
    from repro.api import Cluster
    from repro.xmlstore.serializer import canonical

    cluster = Cluster.atplist()
    if kind == "query":
        service = QueryService(ServiceDescriptor("points"), POINTS_OF_FEDERER)
    else:
        service = DelegatingService(
            ServiceDescriptor("points"),
            delegations=[],
            local_action_template=(
                f'<action type="query"><location>{POINTS_OF_FEDERER}</location></action>'
            ),
        )
    cluster.host_service("AP1", service)
    cluster.add_peer("AP0")
    ap1 = cluster.peer("AP1")
    before = canonical(ap1.get_axml_document("ATPList").document)
    txn = cluster.peer("AP0").begin_transaction()
    fragments = cluster.peer("AP0").invoke(txn.txn_id, "AP1", "points", {})
    assert fragments == ["<points>890</points>"]
    assert [e.kind for e in ap1.manager.log.entries_for(txn.txn_id)] == ["service"]
    cluster.peer("AP0").abort(txn.txn_id)
    assert canonical(ap1.get_axml_document("ATPList").document) == before
