"""Command-line interface: run the paper's scenarios from a shell.

Examples::

    python -m repro atplist --query A
    python -m repro fig1 --fault AP5:S5 --handler AP3:S5
    python -m repro fig2 --case b
    python -m repro fig2 --case b --no-chaining
    python -m repro spheres --super-fraction 0.5 --transactions 500
    python -m repro report --scenario fig1 --fault AP5:S5 --json-out run.json
    python -m repro bench --smoke

All commands drive the :mod:`repro.api` facade.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import (
    ChaosConfig,
    Cluster,
    add_output_arguments,
    add_run_arguments,
)
from repro.sim.scenarios import QUERY_A, QUERY_B
from repro.txn.recovery import DISCONNECT_FAULT, FaultPolicy


def _print_metrics(cluster) -> None:
    print("\nmetrics:")
    for key, value in sorted(cluster.metrics.snapshot().items()):
        print(f"  {key} = {value}")
    if cluster.metrics.txn_outcomes:
        print(f"  outcomes = {cluster.metrics.txn_outcomes}")


def cmd_atplist(args: argparse.Namespace) -> int:
    """Run a §3.1 worked-example query, optionally aborting it."""
    cluster = Cluster.atplist()
    document = cluster.peer("AP1").get_axml_document("ATPList")
    query = QUERY_A if args.query == "A" else QUERY_B
    txn = cluster.session("AP1").transaction()
    outcome = txn.submit(
        f'<action type="query"><location>{query}</location></action>'
    )
    print(f"query {args.query}: {query}")
    print("materialized:", outcome.materialization.methods())
    print("results:", outcome.query_result.texts())
    if args.abort:
        txn.abort()
        print("aborted: document restored by dynamic compensation")
    else:
        txn.commit()
    print("\ndocument now:")
    print(document.to_pretty())
    _print_metrics(cluster)
    return 0


def _parse_peer_method(raw: str) -> tuple:
    peer_id, _, method = raw.partition(":")
    if not peer_id or not method:
        raise SystemExit(f"expected PEER:METHOD, got {raw!r}")
    return peer_id, method


def _run_fig1(args: argparse.Namespace) -> tuple:
    """Fig. 1 with the ``--fault``/``--handler`` flags applied, committed
    when recovery succeeded; returns ``(cluster, error)``."""
    cluster = Cluster.fig1(chaining=not args.no_chaining)
    if args.fault:
        peer_id, method = _parse_peer_method(args.fault)
        cluster.injector.fault_service(
            peer_id, method, "Crash", point="after_execute"
        )
    if args.handler:
        peer_id, method = _parse_peer_method(args.handler)
        cluster.peer(peer_id).set_fault_policy(
            method, [FaultPolicy(fault_names={"Crash"}, retry_times=2)]
        )
    txn, error = cluster.run_topology()
    if error is None:
        txn.commit()
    return cluster, error


def cmd_fig1(args: argparse.Namespace) -> int:
    """Run the Fig. 1 nested-recovery scenario with optional fault/handler."""
    cluster, error = _run_fig1(args)
    print("Fig.1 run:", "recovered/committed" if error is None else f"aborted ({error})")
    for peer_id, peer in cluster.peers.items():
        doc = peer.get_axml_document(f"D{peer_id[2:]}")
        print(f"  {peer_id}: {doc.to_xml()}")
    _print_metrics(cluster)
    return 0 if error is None else 1


def cmd_fig2(args: argparse.Namespace) -> int:
    """Run one of the Fig. 2 disconnection cases (b/c/d)."""
    chaining = not args.no_chaining
    if args.case == "b":
        cluster = Cluster.fig2(extra_peers=("APX",), chaining=chaining)
        cluster.replication.replicate_service("S3", "APX")
        cluster.replication.replicate_document("D3", "APX")
        cluster.peer("AP2").set_fault_policy(
            "S3",
            [FaultPolicy(fault_names={DISCONNECT_FAULT}, retry_times=1,
                         alternative_peer="APX")],
        )
        cluster.injector.disconnect_peer_during("AP3", "AP6", "S6", "after_local_work")
        txn, error = cluster.run_topology()
        print(f"case (b) [{'chaining' if chaining else 'naive'}]: "
              f"recovered={error is None}")
    elif args.case == "c":
        cluster = Cluster.fig2(chaining=chaining)
        txn, _ = cluster.run_topology()
        cluster.peer("AP6").add_pending_work(txn.txn_id, units=20, unit_duration=0.05)
        if not chaining:
            cluster.peer("AP6").mark_doomed(txn.txn_id)
        cluster.network.disconnect("AP3")
        cluster.peer("AP2").check_child_liveness(txn.txn_id)
        informed = cluster.metrics.get("descendants_informed")
        cluster.run_until(cluster.clock.now + 5.0)
        print(f"case (c) [{'chaining' if chaining else 'naive'}]: "
              f"informed={informed}")
    else:  # d
        cluster = Cluster.fig2(chaining=chaining)
        txn, _ = cluster.run_topology()
        cluster.network.disconnect("AP3")
        cluster.peer("AP4").report_stream_timeout(txn.txn_id, "AP3")
        informed = cluster.metrics.get("disconnect_notices_received")
        print(f"case (d) [{'chaining' if chaining else 'naive'}]: "
              f"relatives informed={informed}")
    _print_metrics(cluster)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded chaos run / sweep / replay with the atomicity oracle.

    Exit status 0 means the oracle verified all-or-nothing outcomes for
    every transaction; 1 means violations (already shrunk to a minimal
    replayable schedule in ``--repro-out``).
    """
    from repro.chaos import chaos_sweep, replay_repro_file, run_chaos, shrink_and_report
    from repro.obs import write_json_artifact
    from repro.sim.metrics import MetricsCollector

    if args.replay:
        try:
            result = replay_repro_file(args.replay)
        except (OSError, ValueError) as exc:
            print(f"repro chaos: cannot replay {args.replay}: {exc}",
                  file=sys.stderr)
            return 2
        _print_chaos_result(result)
        return 1 if result.violations else 0

    config = ChaosConfig.from_namespace(args)
    if args.sweep:
        metrics = MetricsCollector()
        table, failures = chaos_sweep(
            config,
            seeds=range(args.seeds),
            # dict.fromkeys: --concurrency 2 must not run every cell twice.
            concurrencies=tuple(dict.fromkeys((2, config.concurrency))),
            metrics=metrics,
            workers=args.workers,
        )
        print(table.render())
        print(
            f"\nchaos_runs = {metrics.get('chaos_runs')}  "
            f"chaos_violations = {metrics.get('chaos_violations')}"
        )
        if args.json_out:
            table.write_json(args.json_out)
            print(f"json artifact written: {args.json_out}")
        return 1 if failures else 0

    result = run_chaos(config)
    _print_chaos_result(result)
    if args.json_out:
        write_json_artifact(args.json_out, result.summary)
        print(f"json summary written: {args.json_out}")
    if result.violations:
        report = shrink_and_report(config, result.plan, repro_path=args.repro_out)
        print(
            f"shrunk schedule: {report.original_events} -> "
            f"{report.minimized_events} events ({report.runs} replays)"
        )
        print(f"repro file written: {args.repro_out}")
        print(f"replay with: python -m repro chaos --replay {args.repro_out}")
        return 1
    return 0


def _print_chaos_result(result) -> None:
    from repro.chaos import describe_plan

    config = result.config
    print(
        f"chaos run: seed={config.seed} txns={config.txns} "
        f"concurrency={config.concurrency} fault_rate={config.fault_rate}"
    )
    print(f"fault schedule ({len(result.plan)} events):")
    for line in describe_plan(result.plan) or ["(none)"]:
        print(f"  {line}")
    committed = sum(1 for r in result.results if r.committed)
    print(
        f"outcomes: {committed} committed, "
        f"{len(result.results) - committed} aborted"
    )
    if result.violations:
        print(f"ATOMICITY VIOLATIONS ({len(result.violations)}):")
        for violation in result.violations:
            print(f"  {violation.to_dict()}")
    else:
        print("oracle: all-or-nothing holds for every transaction (0 violations)")


def cmd_spheres(args: argparse.Namespace) -> int:
    """Print the spheres-of-atomicity guarantee rates for a random pool."""
    from repro.sim.rng import SeededRng
    from repro.sim.workload import generate_participant_sets
    from repro.txn.spheres import sphere_guarantee_rate

    pool = [f"AP{i}" for i in range(1, args.pool + 1)]
    super_count = int(round(args.super_fraction * len(pool)))
    super_peers = pool[:super_count]
    rng = SeededRng(args.seed)
    transactions = generate_participant_sets(rng, pool, args.transactions)
    plain = sphere_guarantee_rate(transactions, super_peers)
    upgraded = sphere_guarantee_rate(
        transactions,
        super_peers,
        peer_independent=True,
        replicas_on_super_peers={p: True for p in pool},
    )
    print(f"pool={len(pool)} super={super_count} transactions={args.transactions}")
    print(f"guaranteed (plain):                    {plain:.3f}")
    print(f"guaranteed (peer-indep + replicas):    {upgraded:.3f}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run a scenario and render the observability report.

    Shows transaction outcomes, the message breakdown, latency/depth
    histogram percentiles and the slowest spans; ``--json-out`` also
    writes the full metrics + span tree as a strict-JSON artifact.
    """
    from repro.obs import render_report, write_json_artifact

    if args.scenario == "fig1":
        cluster, _ = _run_fig1(args)
        title = "fig1 nested recovery"
    else:
        cluster = Cluster.fig2(chaining=not args.no_chaining)
        cluster.injector.disconnect_peer_during(
            "AP3", "AP6", "S6", "after_local_work"
        )
        cluster.run_topology()
        title = "fig2 disconnection (case b window)"

    spans = cluster.spans
    print(render_report(cluster.metrics, spans, title=f"repro report: {title}"))
    if args.json_out:
        write_json_artifact(
            args.json_out,
            {
                "scenario": args.scenario,
                "metrics": cluster.metrics.to_dict(),
                "spans": spans.to_dict(),
            },
        )
        print(f"\njson artifact written: {args.json_out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the T1 throughput sweep and print its table."""
    from repro.sim.throughput import throughput_sweep

    table = throughput_sweep(seed=args.seed, smoke=args.smoke, workers=args.workers)
    print(table.render())
    if args.json_out:
        table.write_json(args.json_out)
        print(f"\njson artifact written: {args.json_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the ICDE'07 AXML-atomicity scenarios from the shell.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_atp = subparsers.add_parser("atplist", help="the §3.1 worked example")
    p_atp.add_argument("--query", choices=("A", "B"), default="A")
    p_atp.add_argument("--abort", action="store_true",
                       help="abort instead of committing (shows compensation)")
    p_atp.set_defaults(fn=cmd_atplist)

    p_f1 = subparsers.add_parser("fig1", help="the §3.2 nested-recovery scenario")
    p_f1.add_argument("--fault", metavar="PEER:METHOD",
                      help="inject a fault, e.g. AP5:S5")
    p_f1.add_argument("--handler", metavar="PEER:METHOD",
                      help="install a retry handler, e.g. AP3:S5")
    p_f1.add_argument("--no-chaining", action="store_true")
    p_f1.set_defaults(fn=cmd_fig1)

    p_f2 = subparsers.add_parser("fig2", help="the §3.3 disconnection cases")
    p_f2.add_argument("--case", choices=("b", "c", "d"), default="b")
    p_f2.add_argument("--no-chaining", action="store_true")
    p_f2.set_defaults(fn=cmd_fig2)

    p_rep = subparsers.add_parser(
        "report", help="run a scenario and print its observability report"
    )
    p_rep.add_argument("--scenario", choices=("fig1", "fig2"), default="fig1")
    p_rep.add_argument("--fault", metavar="PEER:METHOD",
                       help="(fig1) inject a fault, e.g. AP5:S5")
    p_rep.add_argument("--handler", metavar="PEER:METHOD",
                       help="(fig1) install a retry handler, e.g. AP3:S5")
    p_rep.add_argument("--no-chaining", action="store_true")
    add_output_arguments(p_rep)
    p_rep.set_defaults(fn=cmd_report)

    p_b = subparsers.add_parser(
        "bench", help="run the T1 concurrent-throughput sweep"
    )
    p_b.add_argument("--smoke", action="store_true",
                     help="small fast sweep (used by CI)")
    p_b.add_argument("--seed", type=int, default=7)
    p_b.set_defaults(fn=cmd_bench)

    p_ch = subparsers.add_parser(
        "chaos", help="seeded chaos harness + atomicity oracle"
    )
    add_run_arguments(p_ch)
    p_ch.add_argument("--seeds", type=int, default=10,
                      help="(--sweep) how many seeds, 0..N-1")
    p_ch.add_argument("--sweep", action="store_true",
                      help="sweep seeds x concurrency")
    p_ch.add_argument("--replay", metavar="FILE",
                      help="re-execute a repro file instead of planning")
    p_ch.add_argument("--repro-out", metavar="PATH", default="chaos_repro.json",
                      help="where the minimized repro file goes on failure")
    p_ch.set_defaults(fn=cmd_chaos)
    for sweeping in (p_b, p_ch):
        sweeping.add_argument(
            "--workers", type=int, default=1,
            help="worker processes for the sweep (0 = all cores; "
                 "output is byte-identical to serial)")
        add_output_arguments(sweeping)

    p_sp = subparsers.add_parser("spheres", help="spheres-of-atomicity analysis")
    p_sp.add_argument("--super-fraction", type=float, default=0.5)
    p_sp.add_argument("--pool", type=int, default=20)
    p_sp.add_argument("--transactions", type=int, default=200)
    p_sp.add_argument("--seed", type=int, default=17)
    p_sp.set_defaults(fn=cmd_spheres)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro-axml`` script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
