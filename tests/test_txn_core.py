"""Unit tests for transactions, WAL, operations, manager and spheres."""

from unittest import mock

import pytest

from repro.axml.document import AXMLDocument
from repro.axml.materialize import run_action
from repro.errors import TransactionError, TransactionStateError
from repro.query.parser import parse_action
from repro.sim.rng import SeededRng
from repro.sim.workload import generate_catalogue
from repro.txn.manager import TransactionManager
from repro.txn.compensation import build_compensation_for_entries
from repro.txn.spheres import analyze_sphere, sphere_guarantee_rate
from repro.txn.transaction import Transaction, TransactionContext, TransactionState
from repro.txn.wal import OperationLog
from repro.xmlstore.nodes import Element
from repro.xmlstore.path import PathExpr
from repro.xmlstore.serializer import canonical


@pytest.fixture
def axml_doc():
    return AXMLDocument.from_xml(
        "<Shop><item id='1'><price>10</price></item>"
        "<item id='2'><price>20</price></item></Shop>",
        name="Shop",
    )


class TestTransaction:
    def test_begin_unique_ids(self):
        t1, t2 = Transaction.begin("AP1"), Transaction.begin("AP1")
        assert t1.txn_id != t2.txn_id
        assert t1.origin_peer == "AP1"

    def test_context_states(self):
        ctx = TransactionContext(Transaction.begin("AP1"), "AP1")
        assert ctx.state is TransactionState.ACTIVE
        assert ctx.is_origin
        ctx.transition(TransactionState.COMPENSATING)
        ctx.transition(TransactionState.ABORTED)
        assert ctx.is_finished

    def test_illegal_transitions(self):
        ctx = TransactionContext(Transaction.begin("AP1"), "AP1")
        ctx.transition(TransactionState.COMMITTED)
        with pytest.raises(TransactionStateError):
            ctx.transition(TransactionState.ABORTED)

    def test_require_active(self):
        ctx = TransactionContext(Transaction.begin("AP1"), "AP1")
        ctx.require_active()
        ctx.transition(TransactionState.ABORTED)
        with pytest.raises(TransactionStateError):
            ctx.require_active()

    def test_participant_context(self):
        ctx = TransactionContext(
            Transaction.begin("AP1"), "AP3", parent_peer="AP1", service_name="S3"
        )
        assert not ctx.is_origin
        assert ctx.parent_peer == "AP1"

    def test_invocation_edges(self):
        ctx = TransactionContext(Transaction.begin("AP1"), "AP1")
        ctx.record_invocation("AP2", "S2")
        ctx.record_invocation("AP3", "S3")
        ctx.record_invocation("AP2", "S2b")
        assert [(e.target_peer, e.method_name) for e in ctx.invocations] == [
            ("AP2", "S2"), ("AP3", "S3"), ("AP2", "S2b"),
        ]


class TestOperationLog:
    def test_append_and_read(self):
        log = OperationLog("AP1")
        log.append("T1", "update", "D", "<action/>")
        log.append("T2", "update", "D", "<action/>")
        log.append("T1", "query", "D", "<action/>")
        assert len(log) == 3
        assert [e.seq for e in log.entries_for("T1")] == [1, 3]
        assert [e.seq for e in log.undo_entries("T1")] == [3, 1]

    def test_truncate(self):
        log = OperationLog()
        log.append("T1", "update", "D", "<a/>")
        log.append("T2", "update", "D", "<a/>")
        assert log.truncate("T1") == 1
        assert len(log) == 1
        assert log.entries_for("T1") == []

    def test_approximate_bytes_grows(self, axml_doc):
        from repro.query.update import apply_action

        log = OperationLog()
        before = log.approximate_bytes()
        result = apply_action(
            axml_doc.document,
            parse_action(
                '<action type="delete"><location>Select i/price from i in '
                "Shop//item;</location></action>"
            ),
        )
        log.append("T1", "update", "Shop", "<a/>", records=result.records)
        assert log.approximate_bytes() > before


class TestTransactionalOperation:
    """One operation: :func:`run_action` runs it, and
    ``TransactionManager.execute`` logs what it returns."""

    def _logged(self, axml_doc, action_xml):
        manager = TransactionManager("P", lambda name: axml_doc)
        manager.begin(Transaction("T1", "P"))
        return manager.log, manager.execute("T1", parse_action(action_xml), axml_doc.name)

    def test_update_logged(self, axml_doc):
        log, outcome = self._logged(
            axml_doc,
            '<action type="insert"><data><tag/></data><location>Select i from '
            "i in Shop//item;</location></action>",
        )
        assert outcome.log_entry is not None
        assert len(outcome.change_records()) == 2  # one insert per item
        assert log.entries_for("T1")

    def test_query_without_resolver_logs_no_records(self, axml_doc):
        outcome = run_action(
            parse_action(
                '<action type="query"><location>Select i/price from i in '
                "Shop//item;</location></action>"
            ),
            axml_doc,
            None,
        )
        assert outcome.query_result.texts() == ["10", "20"]
        assert outcome.change_records() == []

    def test_lazy_query_on_call_free_catalogue_walks_nothing(self):
        """No ``axml:sc`` anywhere: deciding so reads one posting list —
        no tree iteration, and the source path is evaluated by the
        query alone, not a second time to scope calls that do not exist."""
        catalogue = generate_catalogue(SeededRng(5), 600)
        action = parse_action(
            '<action type="query"><location>Select b/title from b in '
            "Catalogue//book where b/sku = 17;</location></action>"
        )
        source = action.location.source
        evaluated = []
        real_evaluate = PathExpr.evaluate

        def evaluate(path, *args, **kwargs):
            evaluated.append(path)
            return real_evaluate(path, *args, **kwargs)

        with mock.patch.object(PathExpr, "evaluate", evaluate):
            with mock.patch.object(Element, "iter", side_effect=AssertionError("walked")):
                assert catalogue.calls_for_query(action.location) == []
            assert evaluated == []
            outcome = run_action(action, catalogue, lambda call, params: None)
        assert outcome.materialization.invocation_count == 0
        assert sum(path is source for path in evaluated) == 1

    def test_bad_evaluation_mode(self):
        with pytest.raises(ValueError):
            run_action(parse_action(
                '<action type="query"><location>Select i from i in S//x;'
                "</location></action>"
            ), AXMLDocument.from_xml("<S/>", name="S"), None, evaluation="psychic")

    def test_build_compensation_per_document(self, axml_doc):
        log, _ = self._logged(
            axml_doc,
            '<action type="delete"><location>Select i/price from i in '
            "Shop//item;</location></action>",
        )
        plans = build_compensation_for_entries(log.undo_entries("T1"))
        assert len(plans) == 1
        assert plans[0].document_name == "Shop"
        assert len(plans[0]) == 2


class TestTransactionManager:
    def _manager(self, axml_doc):
        return TransactionManager("AP1", lambda name: axml_doc)

    def test_begin_and_context(self, axml_doc):
        manager = self._manager(axml_doc)
        txn = Transaction.begin("AP1")
        ctx = manager.begin(txn)
        assert manager.context(txn.txn_id) is ctx
        assert manager.begin(txn) is ctx  # idempotent

    def test_unknown_context(self, axml_doc):
        with pytest.raises(TransactionError):
            self._manager(axml_doc).context("T999")

    def test_execute_commit_truncates(self, axml_doc):
        manager = self._manager(axml_doc)
        txn = Transaction.begin("AP1")
        manager.begin(txn)
        manager.execute(
            txn.txn_id,
            parse_action(
                '<action type="insert"><data><tag/></data><location>Select i from '
                "i in Shop//item;</location></action>"
            ),
            "Shop",
        )
        assert len(manager.log.entries_for(txn.txn_id)) == 1
        manager.commit_local(txn.txn_id)
        assert manager.log.entries_for(txn.txn_id) == []
        manager.commit_local(txn.txn_id)  # idempotent

    def test_abort_compensates(self, axml_doc):
        manager = self._manager(axml_doc)
        pre = canonical(axml_doc.document)
        txn = Transaction.begin("AP1")
        manager.begin(txn)
        manager.execute(
            txn.txn_id,
            parse_action(
                '<action type="replace"><data><price>999</price></data>'
                "<location>Select i/price from i in Shop//item;</location></action>"
            ),
            "Shop",
        )
        assert "999" in canonical(axml_doc.document)
        executed = manager.abort_local(txn.txn_id)
        assert executed > 0
        assert canonical(axml_doc.document) == pre
        assert manager.abort_local(txn.txn_id) == 0  # idempotent

    def test_fresh_context_for_retried_participant(self, axml_doc):
        manager = self._manager(axml_doc)
        txn = Transaction.begin("AP9")
        manager.begin(txn, parent_peer="AP9", service_name="S1")
        manager.abort_local(txn.txn_id)
        fresh = manager.begin(txn, parent_peer="AP9", service_name="S1")
        assert fresh.state is TransactionState.ACTIVE

    def test_origin_context_not_replaced(self, axml_doc):
        manager = self._manager(axml_doc)
        txn = Transaction.begin("AP1")
        manager.begin(txn)
        manager.abort_local(txn.txn_id)
        ctx = manager.begin(txn)
        assert ctx.is_finished  # origin abort is final

    def test_peer_independent_roundtrip(self, axml_doc):
        manager = self._manager(axml_doc)
        pre = canonical(axml_doc.document)
        txn = Transaction.begin("AP1")
        manager.begin(txn)
        outcome = manager.execute(
            txn.txn_id,
            parse_action(
                '<action type="delete"><location>Select i/price from i in '
                "Shop//item;</location></action>"
            ),
            "Shop",
        )
        plan_xml = manager.build_compensation_xml(
            txn.txn_id, outcome.change_records(), "Shop"
        )
        # Another manager (same document provider) executes it blindly.
        other = TransactionManager("AP2", lambda name: axml_doc)
        executed = other.apply_compensation_xml(plan_xml)
        assert executed == 2
        assert canonical(axml_doc.document) == pre

    def test_active_transactions(self, axml_doc):
        manager = self._manager(axml_doc)
        t1, t2 = Transaction.begin("AP1"), Transaction.begin("AP1")
        manager.begin(t1)
        manager.begin(t2)
        manager.commit_local(t2.txn_id)
        assert [t for t in manager.contexts if manager.live_context(t)] == [t1.txn_id]


class TestSpheres:
    def test_all_super_guaranteed(self):
        analysis = analyze_sphere(["A", "B"], super_peers=["A", "B"])
        assert analysis.guaranteed
        assert "guaranteed" in analysis.explain()

    def test_ordinary_peer_at_risk(self):
        analysis = analyze_sphere(["A", "B"], super_peers=["A"])
        assert not analysis.guaranteed
        assert analysis.at_risk_peers == frozenset({"B"})
        assert "B" in analysis.explain()

    def test_replica_plus_peer_independent_is_safe(self):
        analysis = analyze_sphere(
            ["A", "B"],
            super_peers=["A"],
            replicas_on_super_peers={"B": True},
            peer_independent=True,
        )
        assert analysis.guaranteed

    def test_replica_without_peer_independent_not_safe(self):
        analysis = analyze_sphere(
            ["A", "B"],
            super_peers=["A"],
            replicas_on_super_peers={"B": True},
            peer_independent=False,
        )
        assert not analysis.guaranteed

    def test_only_modifying_peers_matter(self):
        analysis = analyze_sphere(
            ["A", "B", "C"], super_peers=["A"], modifying_peers=["A"]
        )
        assert analysis.guaranteed

    def test_guarantee_rate(self):
        transactions = [["A"], ["A", "B"], ["B"]]
        rate = sphere_guarantee_rate(transactions, super_peers=["A"])
        assert rate == pytest.approx(1 / 3)

    def test_guarantee_rate_empty(self):
        assert sphere_guarantee_rate([], super_peers=[]) == 1.0
