"""Annotated protocol transcripts — the paper's walk-throughs, live.

Runs the §3.2 and §3.3 scenarios with a trace recorder attached and
prints every network interaction with commentary, so you can follow the
message flows the paper describes in prose.

Run:  python examples/protocol_transcripts.py
"""

from repro.api import Cluster
from repro.sim.trace import TraceRecorder
from repro.txn.recovery import FaultPolicy


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    banner("1. Fig.1, happy path — nested invocation, depth-first")
    scenario = Cluster.fig1()
    recorder = TraceRecorder(scenario.network)
    txn, _ = scenario.run_topology()
    txn.commit()
    print(recorder.transcript())
    print("\n(every result returns inside-out; commit notifies all 5 participants)")

    banner("2. Fig.1, AP5 fails while processing S5 — §3.2 steps 1-4")
    scenario = Cluster.fig1()
    recorder = TraceRecorder(scenario.network)
    scenario.injector.fault_service("AP5", "S5", "Crash", point="after_execute")
    scenario.run_topology()
    print(recorder.transcript())
    print(
        "\n(step 1: AP5 aborts and notifies AP6; the fault unwinds to AP3;\n"
        " step 4: AP3 has no handler, aborts, notifies AP4; same at AP1 -> AP2)"
    )

    banner("3. Fig.1, same failure with a retry handler at AP3 — forward recovery")
    scenario = Cluster.fig1()
    recorder = TraceRecorder(scenario.network)
    scenario.injector.fault_service("AP5", "S5", "Crash", point="after_execute")
    scenario.peer("AP3").set_fault_policy(
        "S5", [FaultPolicy(fault_names={"Crash"}, retry_times=1)]
    )
    txn, _ = scenario.run_topology()
    txn.commit()
    print(recorder.transcript())
    print(
        "\n(only the failed S5/S6 subtree aborts and re-runs; AP1 and AP2 never\n"
        " hear about the failure — 'undo only as much as required')"
    )

    banner("4. Fig.2, AP3 dies while AP6 processes S6 — §3.3(b) chaining")
    scenario = Cluster.fig2()
    recorder = TraceRecorder(scenario.network)
    scenario.injector.disconnect_peer_during("AP3", "AP6", "S6", "after_local_work")
    scenario.run_topology()
    print(recorder.transcript())
    print(
        "\n(AP6 cannot return S6's results to dead AP3: the chain routes a\n"
        " disconnect_notice and the redirected_result to grandparent AP2)"
    )


if __name__ == "__main__":
    main()
