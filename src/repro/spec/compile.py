"""Compile a :class:`~repro.spec.model.ScenarioSpec` into a live run.

The compiler is the single construction path behind every canned
scenario, and :func:`run_spec` the single run entry: it builds
testbeds and fleet configs in one fixed order (testbed → schedule
probe → checker → volumes → hoard profile → link outages → fault
injector → session), the order the golden timeline digests pin.
"""

from dataclasses import dataclass, field

from repro.analysis.invariants import InvariantChecker
from repro.fs.content import SyntheticContent
from repro.obs.events import EVENT_KINDS
from repro.spec.families import TESTBED_RUNNERS
from repro.spec.fleet import CommuterConfig, FleetConfig, run_fleet_study
from repro.spec.model import ScenarioSpec
from repro.spec.seeds import master_seed
from repro.spec.testbed import build_testbed
from repro.venus.errors import (
    CacheMissError,
    ConflictError,
    NoSpaceError,
    OfflineError,
)


def _script_session(testbed, script):
    """Interpret a script of :class:`~repro.spec.model.OpStep` ops.

    ``testbed.venus`` is resolved at every step (never captured) so a
    scripted client keeps operating after a client-crash fault swaps
    the Venus identity.
    """
    ignorable = (OSError, CacheMissError, ConflictError, NoSpaceError,
                 OfflineError)
    sim = testbed.sim
    for step in script:
        venus = testbed.venus
        try:
            if step.op == "connect":
                yield from venus.connect()
            elif step.op == "sleep":
                yield sim.sleep(step.seconds)
            elif step.op == "write":
                content = SyntheticContent(step.size, tag=step.tag)
                yield from venus.write_file(step.path, content)
            elif step.op == "read":
                yield from venus.read_file(step.path)
            elif step.op == "stat":
                yield from venus.stat(step.path)
            elif step.op == "readdir":
                yield from venus.readdir(step.path)
            elif step.op == "evict":
                entry = yield from venus.stat(step.path)
                venus.cache.remove(entry.fid)
            elif step.op == "hoard":
                venus.hoard(step.path, step.priority,
                            children=step.children)
            elif step.op == "walk":
                yield from venus.hoard_walk()
        except ignorable:
            if not step.ignore_errors:
                raise


def run_script_spec(spec, observatory=None, schedule_log=None, checker=None,
                    seed=0, plan=None):
    """Build the testbed and run the spec's script; returns the testbed."""
    testbed = build_testbed(spec, observatory=observatory,
                            schedule_log=schedule_log, checker=checker,
                            seed=seed, plan=plan)
    sim = testbed.sim

    def session():
        yield from _script_session(testbed, spec.workload.script)

    sim.run(sim.process(session()))
    if spec.duration is not None:
        sim.run(until=spec.duration)
    return testbed


def fleet_config(spec, master, days=None, name_prefix=""):
    """The family config a fleet spec compiles to.

    For ``figure9`` this is :class:`repro.spec.fleet.FleetConfig` —
    population, days, seed, name prefix, plus any ``workload.mix`` rate
    overrides; pinned fleet digests hash exactly these fields.  ``commuter``
    compiles to :class:`repro.spec.fleet.CommuterConfig` the same
    way, with ``params`` carrying the diurnal shape.
    """
    kwargs = dict(spec.workload.mix)
    kwargs.update(desktops=spec.clients.desktops,
                  laptops=spec.clients.laptops,
                  days=spec.duration if days is None else days,
                  seed=master, name_prefix=name_prefix)
    if spec.family == "commuter":
        kwargs.update(spec.params_dict())
        return CommuterConfig(**kwargs)
    return FleetConfig(**kwargs)


def stream_sweep(observatory):
    """Timeline-level invariants every family can be held to.

    The per-testbed :class:`~repro.analysis.invariants.InvariantChecker`
    needs a client to attach to; this sweep instead audits the finished
    trace — timestamps monotone, every event kind inside the closed
    taxonomy — mirroring the ``monotone-time``/``taxonomy`` legs of the
    fleetd merged-invariant sweep.  Returns a list of violation strings.
    """
    violations = []
    last = None
    kinds = set()
    for event in observatory.trace.events:
        row = event.to_row()
        if last is not None and row["time"] < last:
            violations.append("monotone-time: %r at %.6f after %.6f"
                              % (row["kind"], row["time"], last))
        last = row["time"]
        kinds.add(row["kind"])
    for kind in sorted(kinds - EVENT_KINDS):
        violations.append("taxonomy: unknown event kind %r" % kind)
    return violations


@dataclass
class RunResult:
    """What :func:`run_spec` hands back, whatever the family."""

    spec: ScenarioSpec
    seed: int
    summary: dict
    testbed: object = None
    reports: tuple = None
    checkers: list = field(default_factory=list)


def fingerprint(testbed):
    """Deterministic digest of a finished run's externally visible state.

    Everything here is downstream of the full event schedule — packet
    counts, bytes, CPU-paced sends, CML accounting — so two runs with
    equal fingerprints executed the same simulation.
    """
    venus = testbed.venus
    link = testbed.link.stats()
    cml = venus.cml.stats
    trickle = venus.trickle.stats
    validation = venus.validator.stats
    return {
        "end_time": testbed.sim.now,
        "link_packets_sent": link.packets_sent,
        "link_packets_delivered": link.packets_delivered,
        "link_packets_lost": link.packets_lost,
        "link_bytes_sent": link.bytes_sent,
        "link_bytes_delivered": link.bytes_delivered,
        "client_packets_out": venus.endpoint.packets_out,
        "client_bytes_out": venus.endpoint.bytes_out,
        "server_packets_out": testbed.server.endpoint.packets_out,
        "server_bytes_out": testbed.server.endpoint.bytes_out,
        "venus_state": venus.state.state.value,
        "venus_transitions": [(t, a.value, b.value)
                              for t, a, b in venus.state.transitions],
        "cml_len": len(venus.cml),
        "cml_appended": cml.appended_records,
        "cml_optimized": cml.optimized_records,
        "cml_reintegrated": cml.reintegrated_records,
        "chunks_committed": trickle.chunks_committed,
        "bytes_shipped": trickle.bytes_shipped,
        "fragments_shipped": trickle.fragments_shipped,
        "validation_attempts": validation.attempts,
        "validation_objects": validation.objects_validated,
        "fetches": venus.stats.fetches,
        "fetch_bytes": venus.stats.fetch_bytes,
        "operations": venus.stats.operations,
    }


def _script_summary(testbed):
    digest = fingerprint(testbed)
    summary = {key: digest[key] for key in (
        "end_time", "cml_len", "cml_appended", "cml_optimized",
        "cml_reintegrated", "chunks_committed", "bytes_shipped",
        "fetches", "operations", "validation_attempts")}
    injector = getattr(testbed, "faults", None)
    if injector is not None:
        summary["faults_injected"] = len(injector.log)
    return summary


def _fleet_summary(desktops, laptops, extras=None):
    reports = list(desktops) + list(laptops)
    attempts = sum(report.attempts for report in reports)
    summary = {
        "clients": len(reports),
        "desktops": len(desktops),
        "laptops": len(laptops),
        "validation_attempts": attempts,
        "mean_missing_pct": round(
            sum(report.missing_pct for report in reports)
            / len(reports), 3) if reports else 0.0,
        "mean_success_pct": round(
            sum(report.success_pct for report in reports)
            / len(reports), 3) if reports else 0.0,
    }
    if extras:
        summary.update(extras)
    return summary


def run_spec(spec, observatory=None, schedule_log=None, checker=None,
             seed=None, days=None, plan=None, check_invariants=False):
    """Validate, compile, and run ``spec``; returns a :class:`RunResult`.

    ``seed`` is the user-facing seed, folded through the spec's
    ``seed_kind`` by :func:`~repro.spec.seeds.master_seed`.  ``days``
    overrides a fleet spec's duration.  ``schedule_log`` records the
    kernel's ``(time, priority, sequence)`` dispatch order (testbed
    specs); ``plan`` overrides a script spec's fault plan.
    ``check_invariants`` attaches live invariant checkers, in every
    family (requires ``observatory``); the caller reads
    ``result.checkers`` for violations.
    """
    spec.check()
    master = master_seed(spec.seed_kind, spec.name, seed)
    checkers = []

    if spec.kind == "fleet":
        extras = {}
        desktops, laptops = run_fleet_study(
            fleet_config(spec, master, days=days), observatory=observatory,
            extras=extras, checkers=checkers if check_invariants else None)
        return RunResult(spec=spec, seed=master,
                         summary=_fleet_summary(desktops, laptops, extras),
                         reports=(tuple(desktops), tuple(laptops)),
                         checkers=checkers)

    if check_invariants and checker is None and observatory is not None:
        checker = InvariantChecker(strict=False)
    if checker is not None:
        checkers.append(checker)

    if spec.family == "script":
        testbed = run_script_spec(spec, observatory=observatory,
                                  schedule_log=schedule_log,
                                  checker=checker, seed=master, plan=plan)
        return RunResult(spec=spec, seed=master,
                         summary=_script_summary(testbed), testbed=testbed,
                         checkers=checkers)

    runner = TESTBED_RUNNERS[spec.family]
    testbed, summary = runner(spec, master, observatory=observatory,
                              schedule_log=schedule_log, checker=checker,
                              checkers=checkers)
    return RunResult(spec=spec, seed=master, summary=summary,
                     testbed=testbed, checkers=checkers)
