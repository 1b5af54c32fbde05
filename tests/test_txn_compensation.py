"""Unit tests for dynamic compensation construction (repro.txn.compensation).

These lock in the paper's §3.1 semantics: insert→delete-by-id,
delete→insert-logged-snapshot, replace→reverse pair, query→compensation
of the materialization records, all constructed at run time and applied
in reverse order.
"""

import pytest

from repro.axml.document import AXMLDocument
from repro.axml.materialize import MaterializationEngine
from repro.outcome import Outcome
from repro.query.ast import ActionType
from repro.query.parser import parse_action
from repro.query.update import apply_action
from repro.txn.compensation import (
    CompensationPlan,
    compensate_records,
    compensating_actions_for,
    compensation_for_delete,
    compensation_for_insert,
    node_query,
)
from repro.xmlstore.parser import parse_document
from repro.xmlstore.serializer import canonical

ATP = (
    "<ATPList>"
    '<player rank="1"><name><lastname>Federer</lastname></name>'
    "<citizenship>Swiss</citizenship><points>475</points></player>"
    '<player rank="2"><name><lastname>Nadal</lastname></name>'
    "<citizenship>Spanish</citizenship></player>"
    "</ATPList>"
)


@pytest.fixture
def doc():
    return parse_document(ATP, name="ATPList")


def roundtrip(doc, action_xml, ordered=True):
    """Apply an action, compensate it, return (pre, post) canonical forms."""
    pre = canonical(doc)
    result = apply_action(doc, parse_action(action_xml))
    actions = compensating_actions_for(result, "ATPList", ordered)
    for action in actions:
        apply_action(doc, action, tolerate_missing_targets=True)
    return pre, canonical(doc)


class TestInsertCompensation:
    def test_constructed_action_is_delete_by_id(self, doc):
        result = apply_action(
            doc,
            parse_action(
                '<action type="insert"><data><coach>Lundgren</coach></data>'
                "<location>Select p from p in ATPList//player "
                "where p/name/lastname = Federer;</location></action>"
            ),
        )
        actions = compensating_actions_for(result, "ATPList")
        assert len(actions) == 1
        assert actions[0].action_type is ActionType.DELETE
        assert repr(result.inserted_ids[0]) in str(actions[0].location)

    def test_restores_state(self, doc):
        pre, post = roundtrip(
            doc,
            '<action type="insert"><data><coach>X</coach></data>'
            "<location>Select p from p in ATPList//player;</location></action>",
        )
        assert pre == post


class TestDeleteCompensation:
    DELETE = (
        '<action type="delete"><location>Select p/citizenship from p in '
        "ATPList//player where p/name/lastname = Federer;</location></action>"
    )

    def test_constructed_action_is_insert_of_snapshot(self, doc):
        result = apply_action(doc, parse_action(self.DELETE))
        actions = compensating_actions_for(result, "ATPList")
        assert actions[0].action_type is ActionType.INSERT
        assert "Swiss" in actions[0].data[0]
        assert actions[0].rebind

    def test_restores_state_and_order(self, doc):
        pre, post = roundtrip(doc, self.DELETE)
        assert pre == post  # citizenship back between name and points

    def test_unordered_appends(self, doc):
        pre, post = roundtrip(doc, self.DELETE, ordered=False)
        assert pre != post  # moved to the end...
        restored = parse_document(post)
        federer = restored.root.child_elements()[0]
        assert federer.child_elements()[-1].name.local == "citizenship"

    def test_restores_node_identity(self, doc):
        citizenship = doc.root.child_elements()[0].find_children("citizenship")[0]
        original_id = citizenship.node_id
        result = apply_action(doc, parse_action(self.DELETE))
        for action in compensating_actions_for(result, "ATPList"):
            apply_action(doc, action, tolerate_missing_targets=True)
        node = doc.get_node(original_id)
        assert node.is_attached()
        assert node.text_content() == "Swiss"

    def test_subtree_delete_restores_children(self, doc):
        pre, post = roundtrip(
            doc,
            '<action type="delete"><location>Select p/name from p in '
            "ATPList//player where p/name/lastname = Federer;</location></action>",
        )
        assert pre == post


class TestReplaceCompensation:
    REPLACE = (
        '<action type="replace"><data><citizenship>USA</citizenship></data>'
        "<location>Select p/citizenship from p in ATPList//player "
        "where p/name/lastname = Nadal;</location></action>"
    )

    def test_constructed_pair(self, doc):
        result = apply_action(doc, parse_action(self.REPLACE))
        actions = compensating_actions_for(result, "ATPList")
        assert [a.action_type for a in actions] == [ActionType.DELETE, ActionType.INSERT]
        assert "Spanish" in actions[1].data[0]

    def test_restores_state(self, doc):
        pre, post = roundtrip(doc, self.REPLACE)
        assert pre == post


class TestQueryCompensation:
    """The paper's headline argument: query compensation from
    materialization records (§3.1 queries A and B)."""

    AXML = (
        "<ATPList><player>"
        "<name><lastname>Federer</lastname></name>"
        "<citizenship>Swiss</citizenship>"
        "<axml:sc mode='replace' methodName='getPoints'><points>475</points></axml:sc>"
        "<axml:sc mode='merge' methodName='getGrandSlamsWonbyYear'>"
        "<grandslamswon year='2003'>A, W</grandslamswon>"
        "<grandslamswon year='2004'>A, U</grandslamswon></axml:sc>"
        "</player></ATPList>"
    )

    def _resolver(self, call, params):
        if call.method_name == "getPoints":
            return Outcome(["<points>890</points>"])
        return Outcome(["<grandslamswon year='2005'>A, F</grandslamswon>"])

    def test_query_a_merge_compensation(self):
        from repro.query.parser import parse_select

        doc = AXMLDocument.from_xml(self.AXML, name="ATPList")
        pre = canonical(doc.document)
        q = parse_select(
            "Select p/citizenship, p/grandslamswon from p in ATPList//player "
            "where p/name/lastname = Federer;"
        )
        report = MaterializationEngine(doc, self._resolver).materialize_for_query(q)
        assert report.methods() == ["getGrandSlamsWonbyYear"]
        assert "2005" in canonical(doc.document)
        actions = compensate_records(report.change_records(), "ATPList")
        # merge-mode materialization compensates to a single delete.
        assert [a.action_type for a in actions] == [ActionType.DELETE]
        for action in actions:
            apply_action(doc.document, action, tolerate_missing_targets=True)
        assert canonical(doc.document) == pre

    def test_query_b_replace_compensation(self):
        from repro.query.parser import parse_select

        doc = AXMLDocument.from_xml(self.AXML, name="ATPList")
        pre = canonical(doc.document)
        q = parse_select(
            "Select p/citizenship, p/points from p in ATPList//player "
            "where p/name/lastname = Federer;"
        )
        report = MaterializationEngine(doc, self._resolver).materialize_for_query(q)
        assert report.methods() == ["getPoints"]
        assert "890" in canonical(doc.document)
        actions = compensate_records(report.change_records(), "ATPList")
        for action in actions:
            apply_action(doc.document, action, tolerate_missing_targets=True)
        assert canonical(doc.document) == pre
        assert "475" in canonical(doc.document)


class TestRecordSequences:
    def test_reverse_order(self, doc):
        r1 = apply_action(
            doc,
            parse_action(
                '<action type="insert"><data><a/></data><location>Select p from p '
                "in ATPList//player where p/name/lastname = Federer;</location></action>"
            ),
        )
        r2 = apply_action(
            doc,
            parse_action(
                '<action type="insert"><data><b/></data><location>Select p from p '
                "in ATPList//player where p/name/lastname = Federer;</location></action>"
            ),
        )
        actions = compensate_records(list(r1.records) + list(r2.records), "ATPList")
        # b's compensation first (reverse execution order).
        assert repr(r2.inserted_ids[0]) in str(actions[0].location)
        assert repr(r1.inserted_ids[0]) in str(actions[1].location)

    def test_empty_records(self):
        assert compensate_records([], "D") == []


class TestAdjacentSiblingDeletions:
    """Reverse-order compensation keeps sibling anchors valid.

    A delete record's anchors reference siblings present at *its*
    deletion time: nodes deleted earlier are already absent (never an
    anchor) and nodes deleted later are re-inserted *before* this record
    compensates (reverse order) — so the recorded anchor is always
    attached when used, even for adjacent/overlapping deletions."""

    @pytest.mark.parametrize("order", [("b", "c"), ("c", "b"), ("b", "d"), ("d", "b")])
    def test_two_deletions_restore_exact_order(self, order):
        doc = parse_document("<D><i><a/><b/><c/><d/></i></D>", name="D")
        pre = canonical(doc)
        results = []
        for name in order:
            results.append(
                apply_action(
                    doc,
                    parse_action(
                        f'<action type="delete"><location>Select i/{name} from '
                        "i in D//i;</location></action>"
                    ),
                )
            )
        for result in reversed(results):
            for comp in compensating_actions_for(result, "D"):
                apply_action(doc, comp, tolerate_missing_targets=True)
        assert canonical(doc) == pre

    def test_delete_all_children_restores_order(self):
        doc = parse_document("<D><i><a/><b/><c/><d/></i></D>", name="D")
        pre = canonical(doc)
        results = []
        for name in ("c", "a", "d", "b"):
            results.append(
                apply_action(
                    doc,
                    parse_action(
                        f'<action type="delete"><location>Select i/{name} from '
                        "i in D//i;</location></action>"
                    ),
                )
            )
        assert doc.root.child_elements()[0].child_elements() == []
        for result in reversed(results):
            for comp in compensating_actions_for(result, "D"):
                apply_action(doc, comp, tolerate_missing_targets=True)
        assert canonical(doc) == pre


class TestCompensationPlan:
    def test_xml_roundtrip(self, doc):
        result = apply_action(
            doc,
            parse_action(
                '<action type="delete"><location>Select p/points from p in '
                "ATPList//player;</location></action>"
            ),
        )
        plan = CompensationPlan("ATPList")
        plan.extend_from_records(result.records)
        restored = CompensationPlan.from_xml(plan.to_xml())
        assert restored.document_name == "ATPList"
        assert len(restored) == len(plan)
        assert restored.to_xml() == plan.to_xml()

    def test_execute_tolerates_missing_targets(self, doc):
        plan = CompensationPlan("ATPList")
        plan.actions.append(
            parse_action(
                '<action type="delete"><location>Select n from n in '
                "id(d9.n9@ATPList);</location></action>"
            )
        )
        results = plan.execute(doc)
        assert len(results) == 1
        assert results[0].records == []

    def test_empty_plan(self):
        plan = CompensationPlan("D")
        assert len(plan) == 0
        assert len(plan) == 0

    def test_from_xml_rejects_wrong_root(self):
        with pytest.raises(Exception):
            CompensationPlan.from_xml("<notcompensation/>")


class TestNodeQuery:
    def test_shape(self, doc):
        q = node_query(doc.root.node_id, "ATPList")
        assert q.document_name == "ATPList"
        assert "id(" in str(q)
