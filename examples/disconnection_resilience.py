"""Peer disconnection and the chaining protocol (§3.3), cases (a)-(d).

Runs the Fig. 2 deployment ``[AP1* -> AP2 -> [AP3 -> AP6] || [AP4 -> AP5]]``
and injects each of the paper's four disconnection cases, side by side
with the naive (no-chaining) baseline where the contrast matters.

Run:  python examples/disconnection_resilience.py
"""

from repro.api import Cluster
from repro.txn.recovery import DISCONNECT_FAULT, FaultPolicy


def fig2_with_replacement(chaining: bool):
    scenario = Cluster.fig2(extra_peers=("APX",), chaining=chaining)
    scenario.replication.replicate_service("S3", "APX")
    scenario.replication.replicate_document("D3", "APX")
    scenario.peer("AP2").set_fault_policy(
        "S3",
        [FaultPolicy(fault_names={DISCONNECT_FAULT}, retry_times=1,
                     alternative_peer="APX")],
    )
    return scenario


def main() -> None:
    print("topology:", "[AP1* -> AP2 -> [AP3 -> AP6] || [AP4 -> AP5]]\n")

    # ---------------------------------------------------------- case (a)
    print("case (a): leaf AP6 disconnected, detected by parent AP3's invoke")
    s = Cluster.fig2()
    s.network.disconnect("AP6")
    txn, err = s.run_topology()
    print(f"  origin saw: {type(err).__name__}")
    latency = s.metrics.detection_latency("AP6")
    detected = f"{latency:.3f}s" if latency is not None else "never detected"
    print(f"  detection latency: {detected} (the failed invocation itself)\n")

    # ---------------------------------------------------------- case (b)
    print("case (b): AP3 dies while AP6 processes S6 — child detects parent death")
    for chaining in (True, False):
        s = fig2_with_replacement(chaining)
        s.injector.disconnect_peer_during("AP3", "AP6", "S6", "after_local_work")
        txn, err = s.run_topology()
        label = "chaining" if chaining else "naive   "
        print(f"  [{label}] recovered={err is None} "
              f"redirected={s.metrics.get('results_redirected')} "
              f"reused={s.metrics.get('invocations_reused')} "
              f"discarded={s.metrics.get('invocations_discarded')}")
    print("  with the chain, AP6 pushed S6's results past its dead parent to AP2,")
    print("  and AP2's retry on replica APX reused them instead of re-invoking.\n")

    # ---------------------------------------------------------- case (c)
    print("case (c): AP3 dies quietly; parent AP2 detects via ping")
    for chaining in (True, False):
        s = Cluster.fig2(chaining=chaining)
        txn, _ = s.run_topology()
        s.peer("AP6").add_pending_work(txn.txn_id, units=20, unit_duration=0.05)
        if not chaining:
            s.peer("AP6").mark_doomed(txn.txn_id)  # ground truth
        s.network.disconnect("AP3")
        s.peer("AP2").check_child_liveness(txn.txn_id)
        informed = s.metrics.get("descendants_informed")
        s.network.events.run_until(s.network.clock.now + 5.0)
        label = "chaining" if chaining else "naive   "
        print(f"  [{label}] descendants informed={informed} "
              f"work units wasted={s.metrics.get('work_units_wasted')}")
    print("  the chain lets AP2 warn AP6 (AP3's orphan), saving its pending effort.\n")

    # ---------------------------------------------------------- case (d)
    print("case (d): sibling AP4 notices AP3's data stream went silent")
    s = Cluster.fig2()
    txn, _ = s.run_topology()
    s.network.disconnect("AP3")
    s.peer("AP4").report_stream_timeout(txn.txn_id, "AP3")
    print(f"  AP4 notified AP3's parent and children: "
          f"{s.metrics.get('disconnect_notices_received')} peers now know\n")

    # ------------------------------------------------ spheres of atomicity
    print("spheres of atomicity: can this transaction guarantee atomicity?")
    from repro.txn.spheres import analyze_sphere

    participants = ["AP1", "AP2", "AP3", "AP4", "AP5", "AP6"]
    print("  all ordinary peers:",
          analyze_sphere(participants, super_peers=["AP1"]).guaranteed)
    print("  all super peers:   ",
          analyze_sphere(participants, super_peers=participants).guaranteed)
    print("  replicas + peer-independent compensation:",
          analyze_sphere(
              participants,
              super_peers=["AP1"],
              replicas_on_super_peers={p: True for p in participants},
              peer_independent=True,
          ).guaranteed)


if __name__ == "__main__":
    main()
