"""Unit tests for update execution and change records (repro.query.update)."""

import pytest

from repro.errors import UpdateError
from repro.query.parser import parse_action
from repro.query.update import apply_action, replay_records
from repro.xmlstore.fragment import Fragment
from repro.xmlstore.parser import parse_document
from repro.xmlstore.serializer import canonical


@pytest.fixture
def doc():
    return parse_document(
        "<ATPList>"
        '<player rank="1"><name><lastname>Federer</lastname></name>'
        "<citizenship>Swiss</citizenship></player>"
        '<player rank="2"><name><lastname>Nadal</lastname></name>'
        "<citizenship>Spanish</citizenship></player>"
        "</ATPList>",
        name="ATPList",
    )


def act(xml):
    return parse_action(xml)


class TestDelete:
    def test_paper_delete(self, doc):
        result = apply_action(
            doc,
            act(
                '<action type="delete"><location>Select p/citizenship from p in '
                "ATPList//player where p/name/lastname = Federer;</location></action>"
            ),
        )
        assert len(result.records) == 1
        record = result.records[0]
        assert record.kind == "delete"
        assert "<citizenship" in record.snapshot_xml
        assert "Swiss" in record.snapshot_xml
        assert "citizenship" not in canonical(doc).split("Nadal")[0]

    def test_delete_records_anchors(self, doc):
        result = apply_action(
            doc,
            act(
                '<action type="delete"><location>Select p/citizenship from p in '
                "ATPList//player where p/name/lastname = Federer;</location></action>"
            ),
        )
        record = result.records[0]
        assert record.before_id is not None  # <name> precedes citizenship
        assert record.after_id is None

    def test_delete_of_nothing_is_noop(self, doc):
        result = apply_action(
            doc,
            act(
                '<action type="delete"><location>Select p/ghost from p in '
                "ATPList//player;</location></action>"
            ),
        )
        assert result.records == []

    def test_delete_multiple_targets(self, doc):
        result = apply_action(
            doc,
            act(
                '<action type="delete"><location>Select p/citizenship from p in '
                "ATPList//player;</location></action>"
            ),
        )
        assert len(result.records) == 2

    def test_delete_root_rejected(self, doc):
        with pytest.raises(UpdateError):
            apply_action(
                doc,
                act(
                    '<action type="delete"><location>Select d from d in ATPList;'
                    "</location></action>"
                ),
            )

    def test_nodes_affected_positive(self, doc):
        result = apply_action(
            doc,
            act(
                '<action type="delete"><location>Select p/name from p in '
                "ATPList//player where p/name/lastname = Federer;</location></action>"
            ),
        )
        assert result.nodes_affected >= 3  # name + lastname + text


class TestInsert:
    INSERT = (
        '<action type="insert"><data><points>475</points></data>'
        "<location>Select p from p in ATPList//player "
        "where p/name/lastname = Federer;</location></action>"
    )

    def test_insert_returns_id(self, doc):
        result = apply_action(doc, act(self.INSERT))
        assert len(result.inserted_ids) == 1
        node = doc.get_node(result.inserted_ids[0])
        assert node.text_content() == "475"

    def test_insert_appends_to_target(self, doc):
        apply_action(doc, act(self.INSERT))
        federer = doc.root.child_elements()[0]
        assert federer.child_elements()[-1].name.local == "points"

    def test_insert_no_target_raises(self, doc):
        bad = self.INSERT.replace("Federer", "Borg")
        with pytest.raises(UpdateError):
            apply_action(doc, act(bad))

    def test_insert_no_target_tolerated(self, doc):
        bad = self.INSERT.replace("Federer", "Borg")
        result = apply_action(doc, act(bad), tolerate_missing_targets=True)
        assert result.records == []

    def test_insert_multiple_fragments(self, doc):
        a = act(
            '<action type="insert"><data><x/></data><data><y/></data>'
            "<location>Select p from p in ATPList//player "
            "where p/name/lastname = Nadal;</location></action>"
        )
        result = apply_action(doc, a)
        assert len(result.inserted_ids) == 2

    def test_insert_anchor_before(self, doc):
        federer = doc.root.child_elements()[0]
        citizenship = federer.find_children("citizenship")[0]
        a = act(
            f'<action type="insert" anchor="before:{citizenship.node_id!r}">'
            "<data><points>475</points></data>"
            "<location>Select p from p in ATPList//player "
            "where p/name/lastname = Federer;</location></action>"
        )
        apply_action(doc, a)
        names = [c.name.local for c in federer.child_elements()]
        assert names == ["name", "points", "citizenship"]

    def test_insert_anchor_gone_degrades_to_append(self, doc):
        a = act(
            '<action type="insert" anchor="after:d999.n999">'
            "<data><points>475</points></data>"
            "<location>Select p from p in ATPList//player "
            "where p/name/lastname = Federer;</location></action>"
        )
        apply_action(doc, a)
        federer = doc.root.child_elements()[0]
        assert federer.child_elements()[-1].name.local == "points"

    def test_multi_element_data_splits_into_fragments(self, doc):
        # <data> with two elements parses as two single-element fragments.
        a = act(
            '<action type="insert"><data><x/><y/></data>'
            "<location>Select p from p in ATPList//player "
            "where p/name/lastname = Nadal;</location></action>"
        )
        result = apply_action(doc, a)
        assert len(result.inserted_ids) == 2

    def test_raw_multi_element_fragment_rejected(self, doc):
        from repro.query.ast import ActionType, UpdateAction
        from repro.query.parser import parse_select

        a = UpdateAction(
            ActionType.INSERT,
            parse_select("Select p from p in ATPList//player;"),
            data=(Fragment(text="<x/><y/>"),),
        )
        with pytest.raises(UpdateError):
            apply_action(doc, a)


class TestReplace:
    REPLACE = (
        '<action type="replace"><data><citizenship>USA</citizenship></data>'
        "<location>Select p/citizenship from p in ATPList//player "
        "where p/name/lastname = Nadal;</location></action>"
    )

    def test_replace_swaps_value(self, doc):
        apply_action(doc, act(self.REPLACE))
        nadal = doc.root.child_elements()[1]
        assert nadal.find_children("citizenship")[0].text_content() == "USA"

    def test_replace_record_has_both_halves(self, doc):
        result = apply_action(doc, act(self.REPLACE))
        record = result.records[0]
        assert record.kind == "replace"
        assert "Spanish" in record.deleted.snapshot_xml
        assert len(record.inserted) == 1
        assert "USA" in record.inserted[0].inserted_xml

    def test_replace_preserves_position(self, doc):
        nadal = doc.root.child_elements()[1]
        position = [c.name.local for c in nadal.child_elements()].index("citizenship")
        apply_action(doc, act(self.REPLACE))
        assert [c.name.local for c in nadal.child_elements()].index("citizenship") == position

    def test_replace_no_target_raises(self, doc):
        with pytest.raises(UpdateError):
            apply_action(doc, act(self.REPLACE.replace("Nadal", "Borg")))

    def test_replace_returns_inserted_ids(self, doc):
        result = apply_action(doc, act(self.REPLACE))
        assert len(result.inserted_ids) == 1


def ids_and_text(document):
    return [node.node_id for node in document.iter()], canonical(document)


class TestReplayRecords:
    """A holder with the same ids redoes a logged update from its
    records alone and ends with the same tree, ids included."""

    ACTIONS = [
        # two targets x two fragments, nested fragment nodes
        '<action type="insert"><data><x><y>1</y></x></data><data><z/></data>'
        "<location>Select p from p in ATPList//player;</location></action>",
        '<action type="delete"><location>Select p/citizenship from p in '
        "ATPList//player;</location></action>",
        '<action type="replace"><data><lastname>Borg</lastname></data><data><first/></data>'
        "<location>Select n/lastname from n in ATPList//name;</location></action>",
    ]

    @pytest.mark.parametrize("action_xml", ACTIONS)
    def test_replica_ends_equal_to_the_primary(self, doc, action_xml):
        replica = doc.clone_tree()
        action = act(action_xml)
        result = apply_action(doc, action)
        assert replay_records(replica, action, result.records)
        assert ids_and_text(replica) == ids_and_text(doc)

    @pytest.mark.parametrize("kind", ["delete", "replace"])
    def test_nested_targets(self, kind):
        # The second target lies inside the first, detached with it.
        doc = parse_document("<r><a k='1'><a k='2'><b/></a></a><a k='3'/></r>", name="r")
        replica = doc.clone_tree()
        data = "" if kind == "delete" else "<data><c/></data>"
        action = act(f'<action type="{kind}">{data}<location>Select a from a in r//a;</location></action>')
        result = apply_action(doc, action)
        assert len(result.records) == 3
        assert replay_records(replica, action, result.records)
        assert ids_and_text(replica) == ids_and_text(doc)

    def test_anchor_places_the_node_as_the_primary_did(self, doc):
        replica = doc.clone_tree()
        citizenship = doc.root.child_elements()[0].find_children("citizenship")[0]
        action = act(
            f'<action type="insert" anchor="before:{citizenship.node_id!r}">'
            "<data><points>475</points></data>"
            "<location>Select p from p in ATPList//player "
            "where p/name/lastname = Federer;</location></action>"
        )
        result = apply_action(doc, action)
        assert replay_records(replica, action, result.records)
        assert ids_and_text(replica) == ids_and_text(doc)

    def test_an_unresolved_id_changes_nothing(self, doc):
        action = act(self.ACTIONS[0])
        rehosted = parse_document(canonical(doc), name="ATPList")  # fresh ids
        before = ids_and_text(rehosted)
        result = apply_action(doc, action)
        assert not replay_records(rehosted, action, result.records)
        assert ids_and_text(rehosted) == before
        # Applied twice, the second time finds its new ids already live.
        replica = doc.clone_tree()
        assert not replay_records(replica, action, result.records)


class TestQueryAction:
    def test_query_returns_result_no_records(self, doc):
        result = apply_action(
            doc,
            act(
                '<action type="query"><location>Select p/citizenship from p in '
                "ATPList//player;</location></action>"
            ),
        )
        assert result.records == []
        assert result.query_result.texts() == ["Swiss", "Spanish"]
        assert result.target_count == 2
