"""Unit and integration tests for optimistic validation (repro.txn.occ)."""

import pytest

from repro.axml.document import AXMLDocument
from repro.errors import TransactionError
from repro.query.parser import parse_action
from repro.query.update import apply_action
from repro.txn.compensation import compensating_actions_for
from repro.txn.occ import (
    OptimisticValidator,
    ValidationConflict,
    read_ids,
    written_ids,
)
from repro.xmlstore.nodes import NodeId
from repro.xmlstore.serializer import canonical


@pytest.fixture
def shop():
    return AXMLDocument.from_xml(
        "<Shop><item id='1'><price>10</price></item>"
        "<item id='2'><price>20</price></item></Shop>",
        name="Shop",
    )


def replace_price(shop, which, value):
    return apply_action(
        shop.document,
        parse_action(
            f'<action type="replace"><data><price>{value}</price></data>'
            f"<location>Select i/price from i in Shop//item "
            f"where i/price = {which};</location></action>"
        ),
    )


def query_prices(shop):
    return apply_action(
        shop.document,
        parse_action(
            '<action type="query"><location>Select i/price from i in '
            "Shop//item;</location></action>"
        ),
    ).query_result


class TestFootprints:
    def test_written_ids_cover_parents(self, shop):
        result = replace_price(shop, 10, 99)
        ids = written_ids(result.records)
        record = result.records[0]
        assert record.deleted.node_id in ids
        assert record.deleted.parent_id in ids
        assert record.inserted[0].node_id in ids

    def test_read_ids_cover_bindings_and_selections(self, shop):
        result = query_prices(shop)
        ids = read_ids(result)
        for binding in result.bindings:
            assert binding.context.node_id in ids
            for node in binding.nodes():
                assert node.node_id in ids


class TestValidator:
    def test_disjoint_transactions_commit(self, shop):
        validator = OptimisticValidator()
        validator.begin("T1")
        validator.begin("T2")
        validator.track_writes("T1", written_ids(replace_price(shop, 10, 11).records))
        validator.track_writes("T2", written_ids(replace_price(shop, 20, 21).records))
        validator.validate_and_commit("T1")
        validator.validate_and_commit("T2")
        assert validator.conflicts == 0

    def test_read_write_conflict_detected(self, shop):
        validator = OptimisticValidator()
        validator.begin("reader")
        validator.begin("writer")
        validator.track_reads("reader", read_ids(query_prices(shop)))
        validator.track_writes(
            "writer", written_ids(replace_price(shop, 10, 99).records)
        )
        validator.validate_and_commit("writer")  # first committer wins
        with pytest.raises(ValidationConflict) as exc:
            validator.validate_and_commit("reader")
        assert exc.value.conflicting_txn == "writer"
        assert validator.conflicts == 1

    def test_commit_before_start_is_invisible(self, shop):
        validator = OptimisticValidator()
        validator.begin("old")
        validator.track_writes("old", written_ids(replace_price(shop, 10, 99).records))
        validator.validate_and_commit("old")
        validator.begin("young")
        validator.track_reads("young", read_ids(query_prices(shop)))
        validator.validate_and_commit("young")  # started after old's commit

    def test_write_write_conflict(self, shop):
        validator = OptimisticValidator()
        validator.begin("T1")
        validator.begin("T2")
        shared = written_ids(replace_price(shop, 10, 50).records)
        validator.track_writes("T1", shared)
        validator.track_writes("T2", shared)
        validator.validate_and_commit("T1")
        with pytest.raises(ValidationConflict):
            validator.validate_and_commit("T2")

    def test_readonly_leaves_no_history(self):
        validator = OptimisticValidator()
        validator.begin("reader")
        validator.track_reads("reader", [NodeId(1, 1)])
        validator.validate_and_commit("reader")
        validator.begin("other")
        validator.track_reads("other", [NodeId(1, 1)])
        validator.validate_and_commit("other")

    def test_abort_drops_tracking(self):
        validator = OptimisticValidator()
        validator.begin("T1")
        validator.track_writes("T1", [NodeId(1, 1)])
        validator.abort("T1")
        validator.begin("T2")
        validator.track_reads("T2", [NodeId(1, 1)])
        validator.validate_and_commit("T2")  # T1 never committed

    def test_double_begin_rejected(self):
        validator = OptimisticValidator()
        validator.begin("T1")
        with pytest.raises(TransactionError):
            validator.begin("T1")

    def test_untracked_rejected(self):
        with pytest.raises(TransactionError):
            OptimisticValidator().track_reads("ghost", [])

    def test_history_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.txn.occ.HISTORY_LIMIT", 5)
        validator = OptimisticValidator()
        for i in range(20):
            validator.begin(f"T{i}")
            validator.track_writes(f"T{i}", [NodeId(1, i)])
            validator.validate_and_commit(f"T{i}")
        assert len(validator._committed) == 5


class TestOccWithCompensation:
    """The interplay the paper's conclusion asks about: a validation
    conflict aborts the loser, whose writes compensation removes."""

    def test_conflict_loser_compensates_cleanly(self, shop):
        validator = OptimisticValidator()
        pre = canonical(shop.document)
        validator.begin("loser")
        validator.begin("winner")
        loser_result = replace_price(shop, 20, 77)
        validator.track_writes("loser", written_ids(loser_result.records))
        # winner reads+writes the same doc region and commits first
        winner_result = replace_price(shop, 10, 99)
        validator.track_writes("winner", written_ids(winner_result.records))
        validator.track_reads("loser", read_ids(query_prices(shop)))
        validator.validate_and_commit("winner")
        with pytest.raises(ValidationConflict):
            validator.validate_and_commit("loser")
        validator.abort("loser")
        for comp in compensating_actions_for(loser_result, "Shop"):
            apply_action(shop.document, comp, tolerate_missing_targets=True)
        # winner's effect remains, loser's is gone
        text = canonical(shop.document)
        assert "99" in text and "77" not in text and "20" in text
        assert text != pre
