"""Command-line interface: run any reproduced experiment from a shell.

::

    python -m repro transport            # Figure 1
    python -m repro aging                # Figure 4
    python -m repro patience             # Figure 7
    python -m repro validation           # Figure 8
    python -m repro fleet --days 7       # Figure 9
    python -m repro compressibility      # Figure 10
    python -m repro segments             # Figure 11
    python -m repro replay --segment purcell --aging 600 --think 1
    python -m repro ablations            # the design-choice sweeps
    python -m repro trace-export --segment holst --out holst.trace
    python -m repro obs --scenario trickle --out trickle.jsonl
    python -m repro faults --scenario smoke
    python -m repro lint                 # determinism linter
    python -m repro check-determinism --scenario faults:smoke
    python -m repro perf --scenario fleet-8 --json
    python -m repro perf --scenario fleet-256 --workers 4
    python -m repro fleetd --scenario fleet-64 --workers 4 --verify
    python -m repro golden --check       # golden timeline digests
    python -m repro spec list            # the declarative catalogue
    python -m repro spec run doc-archive --check-invariants
    python -m repro ckpt run --scenario fleet-32 --days 2 --out ck/
    python -m repro ckpt extend --out ck/ --days +1
    python -m repro ckpt verify --out ck/
"""

import argparse
import sys


def _cmd_transport(args):
    from repro.bench import transport
    rows = transport.run_transport_comparison(trials=args.trials)
    transport.format_table(rows).show()


def _cmd_aging(args):
    from repro.bench import aging
    results = aging.run_aging_analysis()
    aging.format_table(results).show()


def _cmd_patience(args):
    from repro.bench import patience
    patience.curve_table().show()
    model, points = patience.run_patience_analysis()
    for point in points:
        below = ", ".join("%gKb/s" % (bw / 1000)
                          for bw, ok in sorted(point.below.items()) if ok)
        print("priority %4d, %8d bytes: transparent at [%s]"
              % (point.priority, point.size, below))


def _cmd_validation(args):
    from repro.bench import validation
    rows = validation.run_validation_comparison()
    validation.format_table(rows).show()


def _cmd_fleet(args):
    from repro.bench import fleet
    config = fleet.FleetConfig(days=args.days,
                               desktops=args.desktops,
                               laptops=args.laptops)
    desktops, laptops = fleet.run_fleet_study(config)
    for table in fleet.format_tables(desktops, laptops):
        table.show()


def _cmd_compressibility(args):
    from repro.bench import compressibility
    result = compressibility.run_compressibility_study(
        population=args.population)
    compressibility.format_table(result).show()


def _cmd_segments(args):
    from repro.bench import segments
    segments.format_table(segments.run_segment_characterization()).show()


def _cmd_replay(args):
    from repro.bench import replay
    from repro.net import profile_by_name
    from repro.trace.segments import SEGMENT_SPECS
    if args.segment not in SEGMENT_SPECS:
        raise SystemExit("unknown segment %r (have %s)"
                         % (args.segment,
                            ", ".join(sorted(SEGMENT_SPECS))))
    if args.network:
        try:
            networks = (profile_by_name(args.network),)
        except KeyError as exc:
            raise SystemExit(exc.args[0]) from None
    else:
        networks = replay.NETWORKS
    cells = []
    for network in networks:
        cell = replay.run_replay_cell(args.segment, network,
                                      args.aging, args.think)
        cells.append(cell)
        print("%-9s %-9s elapsed=%7.1fs  beginCML=%5.0fKB "
              "endCML=%5.0fKB shipped=%5.0fKB optimized=%5.0fKB"
              % (cell.segment, cell.network, cell.elapsed,
                 cell.begin_cml_kb, cell.end_cml_kb, cell.shipped_kb,
                 cell.optimized_kb))


def _cmd_ablations(args):
    from repro.bench import ablations
    ablations.chunk_table(ablations.run_chunk_ablation()).show()
    ablations.aging_replay_table(
        ablations.run_aging_replay_ablation()).show()
    ablations.logopt_table(ablations.run_logopt_ablation()).show()
    ablations.false_sharing_table(
        ablations.run_false_sharing_ablation()).show()
    ablations.compression_table(
        ablations.run_header_compression_ablation()).show()
    ablations.cost_table(ablations.run_cost_ablation()).show()


def _cmd_trace_export(args):
    from repro.trace.io import save_trace
    from repro.trace.segments import SEGMENT_SPECS, segment_by_name
    if args.segment not in SEGMENT_SPECS:
        raise SystemExit("unknown segment %r (have %s)"
                         % (args.segment,
                            ", ".join(sorted(SEGMENT_SPECS))))
    segment = segment_by_name(args.segment)
    save_trace(segment, args.out)
    print("wrote %s: %d references, %d updates"
          % (args.out, segment.references, segment.updates))


def _make_checker(args):
    """The optional invariant checker for obs/faults runs."""
    if not getattr(args, "check_invariants", False):
        return None
    from repro.analysis.invariants import InvariantChecker
    return InvariantChecker(strict=False)


def _report_invariants(checker):
    """Print the checker's verdict; exit 1 on violations."""
    if checker is None:
        return
    checker.check_all()
    print(checker.summary())
    if checker.violations:
        for violation in checker.violations:
            print("  " + violation.format())
        raise SystemExit(1)


def _cmd_obs(args):
    from repro.obs import Observatory, report
    from repro.obs.export import (write_events_csv, write_events_jsonl,
                                  write_metrics_csv, write_metrics_jsonl)
    from repro.obs.scenarios import run_scenario

    observatory = Observatory()
    checker = _make_checker(args)
    try:
        run_scenario(args.scenario, observatory=observatory,
                     checker=checker, seed=args.seed)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.out:
        write_events_jsonl(observatory.trace.events, args.out)
        print("wrote %d events to %s"
              % (len(observatory.trace.events), args.out))
    if args.events_csv:
        write_events_csv(observatory.trace.events, args.events_csv)
        print("wrote %s" % args.events_csv)
    if args.metrics_out:
        write_metrics_jsonl(observatory.metrics, args.metrics_out)
        print("wrote %s" % args.metrics_out)
    if args.metrics_csv:
        write_metrics_csv(observatory.metrics, args.metrics_csv)
        print("wrote %s" % args.metrics_csv)
    print(report.summary(observatory))
    _report_invariants(checker)


def _cmd_faults(args):
    from repro.faults import fault_fingerprint, run_fault_scenario
    from repro.obs import Observatory, report
    from repro.obs.export import write_events_jsonl

    observatory = Observatory()
    checker = _make_checker(args)
    try:
        testbed = run_fault_scenario(args.scenario,
                                     observatory=observatory,
                                     checker=checker, seed=args.seed)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    injector = testbed.faults
    print("fault scenario %r: %d action(s) injected"
          % (args.scenario, len(injector.log)))
    for when, label in injector.log:
        print("  %10.1f  %s" % (when, label))
    if args.out:
        write_events_jsonl(observatory.trace.events, args.out)
        print("wrote %d events to %s"
              % (len(observatory.trace.events), args.out))
    if args.fingerprint:
        digest = fault_fingerprint(testbed)
        for key in sorted(digest):
            if key in ("server_namespace", "venus_transitions",
                       "fault_log"):
                continue
            print("  %-28s %s" % (key, digest[key]))
    print(report.summary(observatory))
    _report_invariants(checker)


def _cmd_perf(args):
    from repro.perf import format_result, run_perf, write_bench

    results = []
    for name in args.scenario or ["fleet-8"]:
        for workers in args.workers or [None]:
            try:
                result = run_perf(name, seed=args.seed,
                                  profile=not args.no_profile,
                                  top=args.top, workers=workers)
            except ValueError as exc:
                raise SystemExit(str(exc)) from None
            results.append(result)
            print(format_result(result))
    if args.json:
        path = write_bench(results, args.out)
        print("wrote %s" % path)


def _cmd_fleetd(args):
    import os

    from repro.fleetd import FLEET_SPECS, format_report, run_sharded, \
        verify_sharded
    from repro.fleetd.merge import write_report

    days = args.days
    if days is None and os.environ.get("REPRO_FAST"):
        # Smoke mode for CI: an eighth of the catalogue duration keeps
        # the 2-worker fleet-32 equivalence check under a minute.
        days = FLEET_SPECS.get(args.scenario,
                               FLEET_SPECS["fleet-8"]).days / 8.0
    try:
        report = run_sharded(args.scenario, workers=args.workers,
                             seed=args.seed, days=days)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(format_report(report))
    if args.json:
        path = write_report(report, args.out)
        print("wrote %s" % path)
    if args.verify:
        verdict = verify_sharded(args.scenario, seed=args.seed,
                                 days=days, report=report)
        print(verdict.format())
        if not verdict.ok:
            raise SystemExit(1)


def _cmd_lint(args):
    from repro.analysis import lint
    argv = list(args.paths)
    if args.json:
        argv.append("--json")
    if args.rules:
        argv.append("--rules")
    raise SystemExit(lint.main(argv))


def _cmd_golden(args):
    from repro.analysis import golden
    argv = ["--fixture", args.fixture]
    if args.regen:
        argv.append("--regen")
    for spec in args.scenario or ():
        argv += ["--scenario", spec]
    raise SystemExit(golden.main(argv))


def _cmd_check_determinism(args):
    from repro.analysis import divergence
    argv = ["--scenario", args.scenario, "--context", str(args.context)]
    if args.json:
        argv.append("--json")
    raise SystemExit(divergence.main(argv))


def _cmd_spec(args):
    from repro.spec import cli as spec_cli
    raise SystemExit(spec_cli.main(args.rest))


def _cmd_ckpt(args):
    from repro.ckpt import cli as ckpt_cli
    raise SystemExit(ckpt_cli.main(args.rest))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Exploiting Weak Connectivity for "
                    "Mobile File Access' (SOSP 1995)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transport", help="Figure 1: SFTP vs TCP")
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(fn=_cmd_transport)

    sub.add_parser("aging", help="Figure 4: aging window"
                   ).set_defaults(fn=_cmd_aging)
    sub.add_parser("patience", help="Figure 7: patience model"
                   ).set_defaults(fn=_cmd_patience)
    sub.add_parser("validation", help="Figure 8: validation time"
                   ).set_defaults(fn=_cmd_validation)

    p = sub.add_parser("fleet", help="Figure 9: fleet statistics")
    p.add_argument("--days", type=float, default=7.0)
    p.add_argument("--desktops", type=int, default=8)
    p.add_argument("--laptops", type=int, default=6)
    p.set_defaults(fn=_cmd_fleet)

    p = sub.add_parser("compressibility", help="Figure 10 histogram")
    p.add_argument("--population", type=int, default=40)
    p.set_defaults(fn=_cmd_compressibility)

    sub.add_parser("segments", help="Figure 11: segment table"
                   ).set_defaults(fn=_cmd_segments)

    p = sub.add_parser("replay", help="Figures 12-14: trace replay")
    p.add_argument("--segment", default="purcell")
    p.add_argument("--network", default=None,
                   help="ethernet|wavelan|isdn|modem (default: all)")
    p.add_argument("--aging", type=float, default=600.0)
    p.add_argument("--think", type=float, default=1.0)
    p.set_defaults(fn=_cmd_replay)

    sub.add_parser("ablations", help="design-choice sweeps"
                   ).set_defaults(fn=_cmd_ablations)

    p = sub.add_parser("trace-export", help="export a trace to a file")
    p.add_argument("--segment", default="purcell")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_trace_export)

    p = sub.add_parser(
        "obs", help="run an instrumented scenario; dump timeline + summary")
    p.add_argument("--scenario", default="trickle",
                   help="trickle|outage (default: trickle)")
    p.add_argument("--out", default=None,
                   help="write the event timeline as JSONL")
    p.add_argument("--events-csv", default=None,
                   help="also write the timeline as CSV")
    p.add_argument("--metrics-out", default=None,
                   help="write final metrics as JSONL")
    p.add_argument("--metrics-csv", default=None,
                   help="write final metrics as CSV")
    p.add_argument("--check-invariants", action="store_true",
                   help="run the cross-component invariant checker; "
                        "exit 1 on any violation")
    p.add_argument("--seed", type=int, default=None,
                   help="alternate stream universe, derived via "
                        "derive_rng('obs', scenario, seed); default: "
                        "the canonical golden-pinned streams")
    p.set_defaults(fn=_cmd_obs)

    p = sub.add_parser(
        "faults",
        help="run a scripted fault-injection scenario; show recovery")
    p.add_argument("--scenario", default="smoke",
                   help="smoke|client-crash|server-crash (default: smoke)")
    p.add_argument("--out", default=None,
                   help="write the event timeline as JSONL")
    p.add_argument("--fingerprint", action="store_true",
                   help="print the final-state fingerprint counters")
    p.add_argument("--check-invariants", action="store_true",
                   help="run the cross-component invariant checker; "
                        "exit 1 on any violation")
    p.add_argument("--seed", type=int, default=None,
                   help="alternate stream universe, derived via "
                        "derive_rng('faults', scenario, seed); default: "
                        "the canonical golden-pinned streams")
    p.set_defaults(fn=_cmd_faults)

    p = sub.add_parser(
        "perf",
        help="time a canned macro-scenario; report events/sec, "
             "sim-seconds per wall-second, and hot frames")
    p.add_argument("--scenario", action="append", default=None,
                   help="fleet-8|fleet-32|fleet-64|fleet-golden|"
                        "trickle-outage|transport-sweep|fleetd-64|"
                        "fleet-256|fleet-1024|ckpt-fleet-256|"
                        "ckpt-fleet-256-resident; repeatable "
                        "(default: fleet-8)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", action="append", type=int, default=None,
                   help="process-pool size for the sharded scenarios; "
                        "repeatable to time several worker counts")
    p.add_argument("--no-profile", action="store_true",
                   help="skip the profiled rerun (timing only)")
    p.add_argument("--top", type=int, default=12,
                   help="hot frames reported per scenario (default 12)")
    p.add_argument("--json", action="store_true",
                   help="write machine-readable results")
    p.add_argument("--out", default="BENCH_perf.json",
                   help="path for --json output (default BENCH_perf.json)")
    p.set_defaults(fn=_cmd_perf)

    p = sub.add_parser(
        "fleetd",
        help="run a fleet scenario as shared-nothing shards on a "
             "process pool; optionally verify equivalence to the "
             "single-process schedule")
    p.add_argument("--scenario", default="fleet-8",
                   help="fleet-8|fleet-32|fleet-64|fleet-256|fleet-1024 "
                        "(default: fleet-8)")
    p.add_argument("--workers", type=int, default=4,
                   help="process-pool size (0 = run in-process; "
                        "default 4)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--days", type=float, default=None,
                   help="override simulated days per shard (default: "
                        "the scenario catalogue; REPRO_FAST=1 uses "
                        "an eighth)")
    p.add_argument("--verify", action="store_true",
                   help="re-run every shard in-process and require "
                        "byte-identical timelines; exit 1 otherwise")
    p.add_argument("--json", action="store_true",
                   help="write the merged report as JSON")
    p.add_argument("--out", default="FLEET_report.json",
                   help="path for --json output "
                        "(default FLEET_report.json)")
    p.set_defaults(fn=_cmd_fleetd)

    p = sub.add_parser(
        "lint",
        help="determinism linter over the simulation source "
             "(exit 0 clean, 1 findings)")
    p.add_argument("paths", nargs="*",
                   help="files/directories (default: the repro package)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable findings")
    p.add_argument("--rules", action="store_true",
                   help="list the rules and exit")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "golden",
        help="check (or --regen) the golden obs-timeline digest "
             "fixtures (exit 0 match, 1 divergence)")
    p.add_argument("--check", action="store_true",
                   help="verify digests against the fixture (default)")
    p.add_argument("--regen", action="store_true",
                   help="rewrite the fixture from the current tree")
    p.add_argument("--fixture", default="tests/golden/timelines.json")
    p.add_argument("--scenario", action="append", default=None,
                   help="limit to specific scenario specs (repeatable)")
    p.set_defaults(fn=_cmd_golden)

    p = sub.add_parser(
        "spec", add_help=False,
        help="inspect, validate, and run declarative scenario specs "
             "(list | show | validate | run)")
    p.add_argument("rest", nargs=argparse.REMAINDER,
                   help="arguments for the spec subcommand")
    p.set_defaults(fn=_cmd_spec)

    p = sub.add_parser(
        "ckpt", add_help=False,
        help="resumable fleet simulation: checkpoint, extend, verify "
             "(run | extend | verify | info)")
    p.add_argument("rest", nargs=argparse.REMAINDER,
                   help="arguments for the ckpt subcommand")
    p.set_defaults(fn=_cmd_ckpt)

    p = sub.add_parser(
        "check-determinism",
        help="run a scenario under perturbed hash seeds and decoy "
             "streams; exit 1 on timeline divergence")
    p.add_argument("--scenario", default="obs:trickle",
                   help="obs:<name> | faults:<name> | "
                        "mod:<module>:<function> (default: obs:trickle)")
    p.add_argument("--context", type=int, default=3,
                   help="events of context shown around a divergence")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.set_defaults(fn=_cmd_check_determinism)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
