"""The ``perf`` table of the ledger: what each macro-scenario dispatches.

``BENCH_perf.json`` is to dispatch counts what
``tests/golden/timelines.json`` is to schedules: every field of every
row is a pure function of (row, seed), so regenerating the file on any
host is a no-op and ``repro ledger perf`` (:mod:`repro.analysis.ledger`)
holds it at zero tolerance.
Nothing here reads a clock, a profiler or the process's RSS —
``perfbench/`` is the only source of a timing claim, and its
``--trace 1`` is the sanctioned "where did the time go".
"""

import os
import tempfile

from repro.sim import KernelTally

#: The ``ckpt`` row's horizon: four day units of an eighth-day each.
CKPT_DAYS = 4
CKPT_DAY_SECONDS = 10800.0


def _trickle_outage():
    """The two weak-connectivity testbed specs back to back."""
    from repro.spec.catalog import get
    from repro.spec.compile import fingerprint, run_spec
    detail = {}
    for name in ("trickle", "outage"):
        digest = fingerprint(run_spec(get(name)).testbed)
        detail[name] = {key: digest[key] for key in (
            "end_time", "link_packets_sent", "cml_reintegrated")}
    return detail


def _transport_sweep():
    """The Figure 1 grid at reduced trial count."""
    from repro.bench import transport
    cells = transport.run_transport_comparison(trials=2)
    return {"cells": len(cells),
            "throughput_kbps": {name: round(cell["send_kbps"], 3)
                                for name, cell in cells.items()}}


#: Row name (as committed in ``BENCH_perf.json``) -> (how it runs, the
#: catalogue spec it runs), cheapest first.  ``composite`` rows carry
#: their own function; ``spec`` rows are ``run_spec`` in-process; both
#: are counted by a :class:`~repro.sim.KernelTally`.  ``sharded`` rows
#: go through :mod:`repro.fleetd` uninstrumented and the ``ckpt`` row
#: through the day driver into a scratch store; their simulators may
#: live in pool workers, so their counts come from the merged report —
#: the same numbers under any worker count.
SCENARIOS = {
    "trickle-outage": ("composite", _trickle_outage),
    "transport-sweep": ("composite", _transport_sweep),
    "fleet-golden": ("spec", "fleet-golden"),
    "fleet-8": ("spec", "fleet-8"),
    "fleet-32": ("spec", "fleet-32"),
    "fleet-64": ("spec", "fleet-64"),
    "fleetd-64": ("sharded", "fleet-64"),
    "fleet-256": ("sharded", "fleet-256"),
    "fleet-1024": ("sharded", "fleet-1024"),
    "ckpt-fleet-256": ("ckpt", "fleet-256"),
}


def _row(name):
    """``(how, target)`` of row ``name``; ValueError lists the rows."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError("unknown perf scenario %r (have %s)"
                         % (name, ", ".join(SCENARIOS))) from None


def takes_workers(name):
    """Whether row ``name`` runs a shard plan (and so can use a pool)."""
    return _row(name)[0] in ("sharded", "ckpt")


def _run_pooled(how, target, seed, workers):
    """A shard-plan row: ``(merged FleetReport, row-specific detail)``."""
    if how == "sharded":
        from repro.fleetd.executor import run_sharded
        return run_sharded(target, workers=workers, seed=seed,
                           instrument=False), {}
    from repro.ckpt import CkptOptions, run_checkpointed
    with tempfile.TemporaryDirectory(prefix="repro-perf-") as scratch:
        report = run_checkpointed(
            target, seed=seed, days=CKPT_DAYS, out=scratch, workers=workers,
            options=CkptOptions(day_seconds=CKPT_DAY_SECONDS))
        store_bytes = sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _dirs, names in os.walk(scratch) for name in names)
    return report, {"day_seconds": CKPT_DAY_SECONDS,
                    "fleet_digest": report.fleet_digest,
                    "store_bytes": store_bytes}


def run_perf(name, seed=0, workers=None):
    """Run row ``name`` of :data:`SCENARIOS`; returns its facts dict.

    ``workers`` sizes the process pool of a row that runs a shard plan
    (default 0: in-process, as ``repro run``); it changes no field of
    the result.  Unknown names raise ValueError with the available
    listing, and so does a worker count on a row that has no shard
    plan — refused, never ignored.
    """
    how, target = _row(name)
    if takes_workers(name):
        report, detail = _run_pooled(how, target, seed, workers or 0)
        detail.update((key, getattr(report, key)) for key in (
            "clients", "days", "validation_attempts", "mean_success_pct",
            "mean_missing_pct"))
        events, sim_seconds = report.dispatched, report.sim_seconds
        simulators = len(report.shards)
    elif workers:
        raise ValueError("--workers only applies to rows that run a shard "
                         "plan, not %r" % name)
    else:
        with KernelTally() as tally:
            if how == "spec":
                from repro.spec.catalog import get
                from repro.spec.compile import run_spec
                detail = run_spec(get(target), seed=seed).summary
            else:
                detail = target()
        events, sim_seconds = tally.events, tally.sim_seconds
        simulators = len(tally.sims)
    return {"scenario": name, "seed": seed, "events": events,
            "sim_seconds": round(sim_seconds, 6), "simulators": simulators,
            "detail": detail}
