"""Unit tests for the lock-based CC baseline (repro.baselines.lock_manager)."""

import pytest

from repro.baselines.lock_manager import (
    LockConflict,
    LockManager,
    LockMode,
    compatible,
)
from repro.xmlstore.parser import parse_document


@pytest.fixture
def doc():
    return parse_document("<r><a><b/></a><c/></r>")


def holders_of(manager, node):
    """txn id → the mode it holds on *node*."""
    return manager._table.get(node.node_id, {})


class TestCompatibility:
    def test_shared_coexists(self):
        assert compatible(LockMode.S, LockMode.S)
        assert compatible(LockMode.IS, LockMode.S)
        assert compatible(LockMode.IS, LockMode.IX)

    def test_exclusive_excludes_all(self):
        for mode in LockMode:
            assert not compatible(LockMode.X, mode)
            assert not compatible(mode, LockMode.X)

    def test_s_vs_ix(self):
        assert not compatible(LockMode.S, LockMode.IX)


class TestAcquire:
    def test_grant_and_count(self, doc):
        manager = LockManager()
        manager.acquire("T1", doc.root.node_id, LockMode.S)
        assert manager.acquisitions == 1
        assert holders_of(manager, doc.root) == {"T1": LockMode.S}

    def test_conflict_raises(self, doc):
        manager = LockManager()
        manager.acquire("T1", doc.root.node_id, LockMode.X)
        with pytest.raises(LockConflict) as exc:
            manager.acquire("T2", doc.root.node_id, LockMode.S)
        assert exc.value.holder == "T1"
        assert manager.conflicts == 1

    def test_reentrant(self, doc):
        manager = LockManager()
        manager.acquire("T1", doc.root.node_id, LockMode.S)
        manager.acquire("T1", doc.root.node_id, LockMode.S)
        assert manager.acquisitions == 1

    def test_upgrade_in_place(self, doc):
        manager = LockManager()
        manager.acquire("T1", doc.root.node_id, LockMode.S)
        manager.acquire("T1", doc.root.node_id, LockMode.X)
        assert holders_of(manager, doc.root)["T1"] is LockMode.X

    def test_upgrade_blocked_by_other_reader(self, doc):
        manager = LockManager()
        manager.acquire("T1", doc.root.node_id, LockMode.S)
        manager.acquire("T2", doc.root.node_id, LockMode.S)
        with pytest.raises(LockConflict):
            manager.acquire("T1", doc.root.node_id, LockMode.X)

    def test_release_all(self, doc):
        manager = LockManager()
        manager.acquire("T1", doc.root.node_id, LockMode.X)
        assert manager.release_all("T1") == 1
        manager.acquire("T2", doc.root.node_id, LockMode.X)  # now free


class TestSubtreeLocks:
    def test_read_takes_intentions_up_the_path(self, doc):
        manager = LockManager()
        b = doc.root.first_child("a").first_child("b")
        manager.lock_subtree("T1", b, LockMode.S)
        assert holders_of(manager, doc.root)["T1"] is LockMode.IS
        assert holders_of(manager, b.parent)["T1"] is LockMode.IS
        assert holders_of(manager, b)["T1"] is LockMode.S

    def test_write_takes_ix_up_the_path(self, doc):
        manager = LockManager()
        b = doc.root.first_child("a").first_child("b")
        manager.lock_for_update("T1", [b])
        assert holders_of(manager, doc.root)["T1"] is LockMode.IX

    def test_readers_of_disjoint_subtrees_coexist(self, doc):
        manager = LockManager()
        a = doc.root.first_child("a")
        c = doc.root.first_child("c")
        manager.lock_for_read("T1", [a], active=False)
        manager.lock_for_read("T2", [c], active=False)

    def test_active_readers_of_same_subtree_conflict(self, doc):
        """The paper's §2 argument: active documents force X on reads."""
        manager = LockManager()
        a = doc.root.first_child("a")
        manager.lock_for_read("T1", [a], active=True)
        with pytest.raises(LockConflict):
            manager.lock_for_read("T2", [a], active=True)

    def test_passive_readers_of_same_subtree_coexist(self, doc):
        manager = LockManager()
        a = doc.root.first_child("a")
        manager.lock_for_read("T1", [a], active=False)
        manager.lock_for_read("T2", [a], active=False)

    def test_writer_blocks_reader_via_intentions(self, doc):
        manager = LockManager()
        a = doc.root.first_child("a")
        manager.lock_for_update("T1", [a])
        with pytest.raises(LockConflict):
            # S on the root conflicts with T1's IX there.
            manager.lock_for_read("T2", [doc.root], active=False)

    def test_held_by(self, doc):
        manager = LockManager()
        b = doc.root.first_child("a").first_child("b")
        manager.lock_subtree("T1", b, LockMode.S)
        assert manager.release_all("T1") == 3  # IS, IS, S
