"""Integration tests for a silent sibling stream (§3.3(d)).

"A sibling would be aware of another sibling's disconnection if it
doesn't receive data at the specified interval."  The consumer AP4
notices AP3's stream has gone silent and calls
``report_stream_timeout``; the reaction runs on the event loop like any
other notice."""

from repro.api import Cluster


def fig2_with_silent_sibling(chaining=True):
    """Fig. 2 where AP3, streaming to its sibling AP4, dies mid-run and
    AP4 reports the silence."""
    scenario = Cluster.fig2(chaining=chaining)
    txn, _ = scenario.run_topology()
    scenario.network.events.run_until(0.5)
    scenario.network.disconnect("AP3")
    scenario.peer("AP4").report_stream_timeout(txn.txn_id, "AP3")
    scenario.network.events.run_until(3.0)
    return scenario, txn


class TestSilenceDetection:
    def test_detection_triggers_chain_notices(self):
        """The silent sibling's parent (AP2) and child (AP6) learn of the
        death through AP4's chain — the §3.3(d) protocol."""
        scenario, txn = fig2_with_silent_sibling()
        assert scenario.peer("AP2").is_doomed(txn.txn_id)
        assert scenario.peer("AP6").is_doomed(txn.txn_id)

    def test_naive_consumer_cannot_notify(self):
        scenario, txn = fig2_with_silent_sibling(chaining=False)
        assert not scenario.peer("AP6").is_doomed(txn.txn_id)
