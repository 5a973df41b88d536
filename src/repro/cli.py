"""Command-line interface: run any reproduced experiment from a shell.

::

    python -m repro figure transport     # Figure 1
    python -m repro figure aging         # Figure 4
    python -m repro figure patience      # Figure 7
    python -m repro figure validation    # Figure 8
    python -m repro figure fleet         # Figure 9
    python -m repro figure compressibility   # Figure 10
    python -m repro figure segments      # Figure 11
    python -m repro figure replay        # Figures 12-14 (purcell)
    python -m repro figure ablations     # the design-choice sweeps
    python -m repro run trickle --out trickle.jsonl
    python -m repro run smoke --check-invariants --fingerprint
    python -m repro run doc-archive --seed 7 --json report.json
    python -m repro run fleet-64 --shards --workers 4 --verify
    python -m repro run fleet-32 --ckpt ck/ --days 2
    python -m repro ckpt extend --out ck/ --days +1
    python -m repro ckpt verify --out ck/
    python -m repro ckpt info --out ck/
    python -m repro spec list            # the scenario catalogue
    python -m repro spec validate --all
    python -m repro ledger golden        # == tests/golden/timelines.json,
                                         # in two perturbed children
    python -m repro ledger perf --row fleet-8    # == its BENCH_perf.json row
    python -m repro ledger perf --workers 2      # all ten rows, pooled
    python -m repro ledger perf --regen          # rewrite it, print moves
    python -m repro lint                 # determinism linter

``repro figure <name>`` prints a figure from :data:`repro.bench.FIGURES`
at its shell parameters.  ``repro run <spec>`` is the one way to run a
catalogue scenario: ``run_spec`` in-process, the shard plan under
``--shards``, the day driver into a resumable store under ``--ckpt``.
``repro ledger golden|perf`` is the one check/regen/diff of committed
facts (:mod:`repro.analysis.ledger`); ``ledger golden`` runs its rows
in two perturbed child interpreters and fails on any divergence.  A
flag the chosen spec or mode cannot honour is refused (exit 2), never
ignored, and so is an unknown name.
"""

import argparse
import math
import os
import sys


def _cmd_figure(args):
    from repro.bench import FIGURES
    for table in FIGURES[args.name]():
        table.show()


def _usage_error(message):
    """Exit 2 with ``message`` on stderr: bad names, inapplicable flags."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _number(kind, positive):
    """argparse ``type``: a finite ``kind`` > 0 (``positive``) or >= 0.

    A bad value exits 2 naming the flag, before anything runs or any
    store directory is made.
    """
    def parse(text):
        value = kind(text)
        if not (value > 0 if positive else value >= 0) \
                or not math.isfinite(value):
            raise argparse.ArgumentTypeError(
                "must be %s 0, got %s" % (">" if positive else ">=", text))
        return value
    parse.__name__ = kind.__name__    # "invalid int value: 'x'"
    return parse


def _catalogue_spec(name):
    """The shipped spec ``name``; an unknown name exits 2 listing all."""
    from repro.spec.catalog import get
    try:
        return get(name)
    except ValueError as exc:
        _usage_error(str(exc))


def _refusal(args, spec):
    """Why ``repro run`` cannot honour the flags it was given, or None.

    An inapplicable flag is refused, never ignored: a run that silently
    dropped ``--days`` or ``--workers`` would report numbers for a
    different experiment than the one asked for.
    """
    testbed = spec.kind == "testbed"
    pooled = args.shards or args.ckpt
    rules = (      # (flags, they apply here, why not)
        (("days", "shards", "ckpt", "workers", "verify", "day_seconds"),
         not testbed,
         "%s is a testbed spec: its workload fixes its duration and it "
         "has no fleet to shard" % spec.name),
        (("shards", "ckpt"), spec.shards is not None,
         "%s has no shard plan (its catalogue entry sets no `shards`)"
         % spec.name),
        (("shards",), not args.ckpt,
         "--shards and --ckpt both run the shard plan; pick one"),
        (("workers",), pooled,
         "needs --shards or --ckpt (an in-process run has no pool)"),
        (("verify",), args.shards,
         "needs --shards (`repro ckpt verify` checks a store)"),
        (("day_seconds",), args.ckpt, "needs --ckpt"),
        (("out", "metrics_out", "fingerprint"), testbed,
         "needs a testbed spec: a fleet run has no single testbed to "
         "export or fingerprint"),
        (("check_invariants",), not pooled,
         "audits an in-process run (--shards has --verify, a store "
         "has `repro ckpt verify`)"),
        (("json",), not args.ckpt,
         "the store's manifest.json is the report of a --ckpt run"),
    )
    for flags, applies, reason in rules:
        if applies:
            continue
        for flag in flags:
            value = getattr(args, flag)
            # Identity, not truth: ``--workers 0`` is a flag that was given.
            if value is not None and value is not False:
                return "--%s: %s" % (flag.replace("_", "-"), reason)
    if args.ckpt and args.days is not None \
            and (args.days < 1 or args.days != int(args.days)):
        return ("--days: counts whole day units under --ckpt, got %g"
                % args.days)
    return None


def _fast_variant(spec, args):
    """The one ``REPRO_FAST`` rule: ``(spec, days, day_seconds)`` to run.

    Explicit ``--days``/``--day-seconds`` win.  Testbed families take
    their ``FAST_PARAMS``; a fleet runs an eighth of its catalogue days
    in-process or sharded, or its family's ``FAST_FLEET`` days (and,
    in-process, population: a shard plan is a function of the name);
    a checkpointed run shrinks its day unit to an eighth instead.
    """
    days, day_seconds = args.days, args.day_seconds
    if not os.environ.get("REPRO_FAST"):
        return spec, days, day_seconds
    from dataclasses import replace

    from repro.spec.catalog import FAST_FLEET, FAST_PARAMS
    if spec.kind == "testbed":
        overrides = FAST_PARAMS.get(spec.family)
        if overrides:
            spec = spec.with_params(**overrides)
    elif args.ckpt:
        if day_seconds is None:
            from repro.ckpt.driver import DAY
            day_seconds = DAY / 8.0
    else:
        shape = FAST_FLEET.get(spec.family)
        if days is None:
            days = shape["days"] if shape else spec.duration / 8.0
        if shape and not args.shards:
            spec = replace(spec, clients=replace(
                spec.clients, count=shape["desktops"] + shape["laptops"],
                desktops=shape["desktops"], laptops=shape["laptops"]))
    return spec, days, day_seconds


def _cmd_run(args):
    spec = _catalogue_spec(args.spec)
    refusal = _refusal(args, spec)
    if refusal:
        _usage_error("repro run %s: %s" % (spec.name, refusal))
    spec, days, day_seconds = _fast_variant(spec, args)
    if args.ckpt:
        return _run_checkpointed(args, spec, days, day_seconds)
    if args.shards:
        return _run_sharded(args, spec, days)
    return _run_in_process(args, spec, days)


def _run_in_process(args, spec, days):
    import json

    from repro.obs import Observatory, export, report
    from repro.spec.compile import run_spec, stream_sweep

    observatory = Observatory()
    result = run_spec(spec, observatory=observatory, seed=args.seed,
                      days=days, check_invariants=args.check_invariants)
    print("spec %s (%s/%s): %s"
          % (spec.name, spec.kind, spec.family, spec.title))
    for key in sorted(result.summary):
        print("  %-26s %s" % (key, result.summary[key]))
    injector = getattr(result.testbed, "faults", None)
    if injector is not None:
        print("fault timeline: %d action(s) injected" % len(injector.log))
        for when, label in injector.log:
            print("  %10.1f  %s" % (when, label))
    if args.out:
        export.write_events_jsonl(observatory.trace.events, args.out)
        print("wrote %d events to %s"
              % (len(observatory.trace.events), args.out))
    if args.metrics_out:
        export.write_metrics_jsonl(observatory.metrics, args.metrics_out)
        print("wrote %s" % args.metrics_out)
    if args.fingerprint:
        from repro.faults import fault_fingerprint
        digest = fault_fingerprint(result.testbed)
        print("fingerprint:")
        for key in sorted(digest):
            if key not in ("server_namespace", "venus_transitions",
                           "fault_log"):
                print("  %-28s %s" % (key, digest[key]))
    print(report.summary(observatory))
    if args.json:
        payload = {"spec": spec.to_dict(), "seed": result.seed,
                   "summary": result.summary}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote %s" % args.json)
    if not args.check_invariants:
        return 0
    violations = list(stream_sweep(observatory))
    checks = 0
    for checker in result.checkers:
        checker.check_all()
        checks += checker.checks
        violations.extend(v.format() for v in checker.violations)
    print("invariants: %d checker(s), %d check(s), %d violation(s)"
          % (len(result.checkers), checks, len(violations)))
    for violation in violations:
        print("  " + violation)
    return 1 if violations else 0


def _run_sharded(args, spec, days):
    from repro.fleetd import format_report, run_sharded, verify_sharded
    from repro.fleetd.merge import write_report

    seed = args.seed or 0       # the canonical shard streams are seed 0
    report = run_sharded(spec.name, workers=args.workers or 0, seed=seed,
                         days=days)
    print(format_report(report))
    if args.json:
        print("wrote %s" % write_report(report, args.json))
    if args.verify:
        verdict = verify_sharded(spec.name, seed=seed, days=days,
                                 report=report)
        print(verdict.format())
        return 0 if verdict.ok else 1
    return 0


def _run_checkpointed(args, spec, days, day_seconds):
    from repro.ckpt import CheckpointError, CkptOptions, run_checkpointed
    from repro.fleetd import format_report

    options = (CkptOptions() if day_seconds is None
               else CkptOptions(day_seconds=day_seconds))
    days = 1 if days is None else int(days)
    try:
        report = run_checkpointed(
            spec.name, seed=args.seed or 0, days=days, out=args.ckpt,
            workers=args.workers or 0, options=options)
    except (CheckpointError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    print(format_report(report))
    print("checkpoint: %d day(s) of %gs at %s"
          % (days, options.day_seconds, args.ckpt))
    return 0


def _cmd_ledger(args):
    from repro.analysis import ledger
    try:
        plan = ledger.prepare(args.table, args.row, args.workers, args.file,
                              args.regen)
    except ValueError as exc:
        _usage_error("repro ledger %s: %s" % (args.table, exc))
    return ledger.run(*plan, workers=args.workers, regen=args.regen)


def _cmd_lint(args):
    from repro.analysis import lint
    if args.rules:
        for rule in sorted(lint.RULES):
            print("%s  %s" % (rule, lint.RULES[rule]))
        return 0
    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        _usage_error("no such path: %s" % ", ".join(missing))
    if args.paths:
        findings = lint.lint_paths(args.paths, root=lint.package_root())
    else:
        findings = lint.lint_package()
    print(lint.format_json(findings) if args.json
          else lint.format_text(findings))
    return 1 if findings else 0


def _cmd_spec_list(args):
    from repro.spec.catalog import shipped
    for spec in shipped():
        clients = (spec.clients.desktops + spec.clients.laptops
                   if spec.kind == "fleet" else spec.clients.count)
        duration = ("%g day(s)" % spec.duration
                    if spec.kind == "fleet" else "workload")
        print("%-16s %-8s %-15s %4d client(s)  %-10s %s"
              % (spec.name, spec.kind, spec.family, clients, duration,
                 spec.title))


def _cmd_spec_show(args):
    print(_catalogue_spec(args.name).to_json(indent=2))


def _validate_one(spec):
    """Strict-check one spec plus its serialization round trip.

    Returns a list of error strings (empty when the spec is sound).
    The round trip — spec -> JSON -> spec, compared for equality —
    catches fields that validate live but do not survive the canonical
    document form, which would break every consumer of shipped specs.
    """
    from repro.spec.model import ScenarioSpec, SpecError
    try:
        spec.check()
    except SpecError as exc:
        return list(exc.errors)
    try:
        again = ScenarioSpec.from_json(spec.to_json())
    except (SpecError, ValueError) as exc:
        return ["round-trip: %s" % exc]
    if again != spec:
        return ["round-trip: spec != from_json(to_json(spec))"]
    return []


def _cmd_spec_validate(args):
    from repro.spec.catalog import shipped
    if args.all:
        specs = shipped()
    elif args.names:
        specs = [_catalogue_spec(name) for name in args.names]
    else:
        _usage_error("repro spec validate: name one or more specs, "
                     "or --all")
    failures = 0
    for spec in specs:
        errors = _validate_one(spec)
        if errors:
            failures += 1
            print("%-16s INVALID" % spec.name)
            for error in errors:
                print("    " + error)
        else:
            print("%-16s ok" % spec.name)
    if failures:
        print("%d of %d spec(s) invalid" % (failures, len(specs)))
        return 1
    print("%d spec(s) valid" % len(specs))
    return 0


def _cmd_ckpt_extend(args):
    from repro.ckpt import CheckpointError, extend_checkpointed
    from repro.fleetd import format_report

    try:
        report = extend_checkpointed(args.out, args.days,
                                     workers=args.workers)
    except (CheckpointError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    print(format_report(report))
    print("checkpoint extended to %g day(s) at %s"
          % (report.days, args.out))


def _cmd_ckpt_verify(args):
    from repro.ckpt import verify_checkpoint

    try:
        verdict = verify_checkpoint(args.out, replay=not args.no_replay,
                                    replay_day=args.replay_day,
                                    replay_shard=args.replay_shard)
    except ValueError as exc:
        _usage_error(str(exc))
    print(verdict.format())
    return 0 if verdict.ok else 1


def _cmd_ckpt_info(args):
    from repro.ckpt import CheckpointError, CheckpointStore

    try:
        manifest = CheckpointStore(args.out).read_manifest()
    except CheckpointError as exc:
        raise SystemExit(str(exc)) from None
    options = manifest["options"]
    print("checkpoint %s" % args.out)
    print("  scenario       %s (seed %d, %s)"
          % (manifest["scenario"], manifest["seed"],
             manifest["spec"].get("family", "figure9")))
    print("  days           %d x %gs (swap window %gs)"
          % (manifest["days"], options["day_seconds"],
             options["swap_window"]))
    print("  schemas        manifest %s, state %d, snapshot %d"
          % (manifest["schema"], manifest["state_schema"],
             manifest["snapshot_schema"]))
    print("  fleet digest   %s" % manifest["fleet_digest"])
    for entry in manifest["shards"]:
        print("    shard %02d: %2d client(s) %9d events  %s"
              % (entry["index"], entry["desktops"] + entry["laptops"],
                 entry["events"], entry["digest"][:16]))


def build_parser():
    from repro.analysis.ledger import TABLES
    from repro.bench import FIGURES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Exploiting Weak Connectivity for "
                    "Mobile File Access' (SOSP 1995)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure", help="print a reproduced figure's tables "
                                      "(transport = Figure 1 ... replay = "
                                      "Figures 12-14, and the ablations)")
    p.add_argument("name", choices=FIGURES)
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser(
        "run",
        help="run a catalogue scenario: in-process, as shards on a "
             "process pool (--shards), or into a resumable checkpoint "
             "store (--ckpt)")
    p.add_argument("spec", help="catalogue name (see: repro spec list)")
    p.add_argument("--seed", type=int, default=None,
                   help="alternate stream universe, folded through the "
                        "spec's seed kind; default: the canonical "
                        "golden-pinned streams")
    p.add_argument("--days", type=_number(float, positive=True),
                   default=None,
                   help="simulated days of a fleet spec (default: the "
                        "catalogue's; under --ckpt, whole day units, "
                        "default 1)")
    p.add_argument("--check-invariants", action="store_true",
                   help="attach invariant checkers and audit the event "
                        "stream; exit 1 on any violation")
    p.add_argument("--out", default=None,
                   help="write the event timeline as JSONL")
    p.add_argument("--metrics-out", default=None,
                   help="write final metrics as JSONL")
    p.add_argument("--fingerprint", action="store_true",
                   help="print the final-state fingerprint counters")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the run's report (spec, seed and summary; "
                        "the merged fleet report under --shards) as JSON")
    p.add_argument("--shards", action="store_true",
                   help="run the spec's shard plan, one full simulation "
                        "per shard")
    p.add_argument("--ckpt", default=None, metavar="DIR",
                   help="run the shard plan in day units into a new "
                        "checkpoint store at DIR (extend it with: "
                        "repro ckpt extend)")
    p.add_argument("--workers", type=_number(int, positive=False),
                   default=None,
                   help="process-pool size under --shards/--ckpt "
                        "(default 0: in-process, the reference)")
    p.add_argument("--verify", action="store_true",
                   help="under --shards, re-run every shard in-process "
                        "and require byte-identical timelines; exit 1 "
                        "otherwise")
    p.add_argument("--day-seconds", type=_number(float, positive=True),
                   default=None,
                   help="under --ckpt, sim seconds per day unit "
                        "(default 86400; REPRO_FAST=1 uses an eighth)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "ledger",
        help="re-run a ledger's rows and check them against its committed "
             "facts at zero tolerance (exit 0 match, 1 differ), or --regen "
             "it: golden = tests/golden/timelines.json, perf = "
             "BENCH_perf.json")
    p.add_argument("table", choices=TABLES)
    p.add_argument("--row", action="append", default=None, metavar="NAME",
                   help="a row of the table; repeatable (default: all)")
    p.add_argument("--workers", type=_number(int, positive=False),
                   default=None,
                   help="process-pool size for the selected rows that run "
                        "a shard plan (default 0: in-process); moves no "
                        "fact")
    p.add_argument("--regen", action="store_true",
                   help="rewrite the rows run, keep the others, and print "
                        "what moved")
    p.add_argument("--file", default=None, metavar="PATH",
                   help="the ledger file (default: the table's, relative "
                        "to the repo root)")
    p.set_defaults(fn=_cmd_ledger)

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

    spec = sub.add_parser(
        "spec", help="inspect and validate the scenario catalogue"
    ).add_subparsers(dest="spec_command", required=True)
    spec.add_parser("list", help="the shipped catalogue, one per line"
                    ).set_defaults(fn=_cmd_spec_list)
    p = spec.add_parser("show", help="print a spec's canonical JSON")
    p.add_argument("name")
    p.set_defaults(fn=_cmd_spec_show)
    p = spec.add_parser(
        "validate",
        help="strict-check specs (exit 1 on any invalid, listing "
             "per-spec errors)")
    p.add_argument("names", nargs="*",
                   help="spec names (default: require --all)")
    p.add_argument("--all", action="store_true",
                   help="validate every shipped spec")
    p.set_defaults(fn=_cmd_spec_validate)

    ckpt = sub.add_parser(
        "ckpt", help="extend, verify, and inspect a checkpoint store "
                     "written by: repro run <spec> --ckpt DIR"
    ).add_subparsers(dest="ckpt_command", required=True)
    p = ckpt.add_parser("extend", help="resume a checkpoint for more "
                                       "days, byte-identical to a "
                                       "from-scratch run of the total")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--days", type=_number(int, positive=True), default=1,
                   metavar="+N",
                   help="days to add, e.g. +1 (default +1)")
    p.add_argument("--workers", type=_number(int, positive=False),
                   default=0,
                   help="process-pool size (0 = in-process; default 0)")
    p.set_defaults(fn=_cmd_ckpt_extend)
    p = ckpt.add_parser("verify",
                        help="structural checks + sampled replay; "
                             "exit 1 on corruption")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--no-replay", action="store_true",
                   help="structural checks only")
    p.add_argument("--replay-day", type=int, default=None,
                   help="pin the replayed day (default: sampled)")
    p.add_argument("--replay-shard", type=int, default=None,
                   help="pin the replayed shard (default: sampled)")
    p.set_defaults(fn=_cmd_ckpt_verify)
    p = ckpt.add_parser("info", help="print a checkpoint's manifest")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.set_defaults(fn=_cmd_ckpt_info)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args) or 0


if __name__ == "__main__":
    sys.exit(main())
