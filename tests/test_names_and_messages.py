"""Unit tests for QNames (repro.xmlstore.names) and message dataclasses."""

import pytest

from repro.outcome import Outcome
from repro.p2p.messages import (
    AbortMessage,
    CommitMessage,
    CompensationRequest,
    DisconnectNotice,
    InvokeRequest,
    PingMessage,
    RedirectedResult,
)
from repro.xmlstore.names import (
    AXML_PREFIX,
    QName,
    SC_NAME,
    is_valid_name,
)


class TestQName:
    def test_parse_plain(self):
        name = QName.parse("player")
        assert name.local == "player"
        assert name.prefix == ""
        assert name.text == "player"

    def test_parse_prefixed(self):
        name = QName.parse("axml:sc")
        assert name.prefix == AXML_PREFIX
        assert name.local == "sc"
        assert name.text == "axml:sc"

    def test_parse_malformed(self):
        with pytest.raises(ValueError):
            QName.parse(":broken")
        with pytest.raises(ValueError):
            QName.parse("broken:")

    def test_equality_and_hash(self):
        assert QName.parse("axml:sc") == SC_NAME
        assert hash(QName("a")) == hash(QName("a"))
        assert QName("a") != QName("a", "p")

    def test_str(self):
        assert str(QName("sc", "axml")) == "axml:sc"


class TestIsValidName:
    @pytest.mark.parametrize("good", ["a", "Ab", "_x", "a-b", "a.b", "a1", "x_9"])
    def test_valid(self, good):
        assert is_valid_name(good)

    @pytest.mark.parametrize("bad", ["", "1a", "-a", ".a", "a b", "a<b", "a&b"])
    def test_invalid(self, bad):
        assert not is_valid_name(bad)


class TestMessages:
    def test_invoke_request_defaults(self):
        request = InvokeRequest("T1", "O", "S", "m")
        assert request.params == {}
        assert request.chain is None
        assert request.reused_fragments == {}

    def test_invoke_result_defaults(self):
        result = Outcome()
        assert list(result.fragments) == []
        assert list(result.compensations) == []
        assert result.chain is None

    def test_invoke_result_is_the_unified_outcome(self):
        # The RPC reply is the one Outcome class; its metrics/trace kind
        # stays "result".
        from repro.p2p.messages import message_kind

        assert Outcome.KIND == "result"
        assert message_kind(Outcome()) == "result"

    def test_messages_carry_fields(self):
        assert AbortMessage("T1", "P", "S5").failed_method == "S5"
        assert CommitMessage("T1", "P").txn_id == "T1"
        assert CompensationRequest("T1", "<compensation/>", "P").plan_xml
        notice = DisconnectNotice("T1", "dead", "seer", 1.5)
        assert (notice.disconnected_peer, notice.detected_by) == ("dead", "seer")
        redirect = RedirectedResult("T1", "child", "dead", "S6", ["<r/>"])
        assert redirect.method_name == "S6"
        assert PingMessage("a", "b").to_peer == "b"

    def test_distinct_requests_do_not_share_mutables(self):
        a, b = InvokeRequest("T1", "O", "S", "m"), InvokeRequest("T2", "O", "S", "m")
        a.params["k"] = "v"
        assert b.params == {}

    def test_outcome_is_frozen(self):
        import dataclasses

        result = Outcome(["<x/>"])
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.provider_peer = "P"  # type: ignore[misc]
