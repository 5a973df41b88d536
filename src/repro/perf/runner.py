"""Wall-clock harness for ``repro perf``.

This module is the only place in the tree that reads a wall clock
(``time.perf_counter``); ``repro lint`` allowlists it for DET001.
Real time is *measured* here but never fed back into simulation
behaviour, so a perf run is schedule-identical to an unmeasured one.

Each scenario is run twice by default: once bare for honest timing
(events/sec, sim-seconds per wall-second) and once under cProfile for
the hot-frame ranking.  Profiler overhead roughly doubles this
workload's runtime, so mixing the two would corrupt the headline
numbers that CHANGES.md tracks across PRs.

The cyclic garbage collector is paused for the duration of the timed
run.  The simulation graph is reference-counted garbage only (a
fleet-64 run peaks under 50 MB of RSS with the collector off), so
generational scans contribute ~10% of wall time while never freeing
anything — pure measurement noise.  The pause is scoped to the timed
thunk and always undone, and numbers recorded in CHANGES.md are only
comparable with ones measured through this same harness.
"""

import gc
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field

from repro.perf.profiler import capture_profile
from repro.sim import kernel

BENCH_SCHEMA = "repro.perf/6"


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
    rows = transport.run_transport_comparison(trials=2)
    return {"cells": len(rows),
            "throughput_kbps": {
                "%s/%s" % (r.protocol, r.network): round(r.send_kbps, 3)
                for r in rows}}


#: Row name (as committed in ``BENCH_perf.json``) -> (how it runs, the
#: catalogue spec it runs).  ``spec`` rows are ``run_spec`` in-process.
#: ``sharded`` rows go through :mod:`repro.fleetd` *uninstrumented*, so
#: their wall numbers stay comparable with the in-process rows
#: (equivalence is proven by ``repro run --shards --verify``, not
#: re-proven inside every timing run); only they take a worker count.
#: ``streamed``/``resident`` rows measure a checkpointed run in a fresh
#: subprocess (:mod:`repro.ckpt.bench`) so each row's peak RSS reflects
#: one buffering strategy.  ``composite`` rows carry their own function.
SCENARIOS = {
    "fleet-8": ("spec", "fleet-8"),
    "fleet-32": ("spec", "fleet-32"),
    "fleet-64": ("spec", "fleet-64"),
    "fleet-golden": ("spec", "fleet-golden"),
    "fleetd-64": ("sharded", "fleet-64"),
    "fleet-256": ("sharded", "fleet-256"),
    "fleet-1024": ("sharded", "fleet-1024"),
    "ckpt-fleet-256": ("streamed", "fleet-256"),
    "ckpt-fleet-256-resident": ("resident", "fleet-256"),
    "trickle-outage": ("composite", _trickle_outage),
    "transport-sweep": ("composite", _transport_sweep),
}


def _run_row(how, target, seed, workers):
    """Run one row of :data:`SCENARIOS`; returns its detail dict."""
    if how == "spec":
        from repro.spec.catalog import get
        from repro.spec.compile import run_spec
        return run_spec(get(target), seed=seed).summary
    if how == "composite":
        return target()
    if how == "sharded":
        from repro.fleetd.executor import run_sharded
        report = run_sharded(target, workers=workers, seed=seed,
                             instrument=False)
        detail = {key: getattr(report, key) for key in (
            "clients", "days", "dispatched", "sim_seconds",
            "validation_attempts", "mean_success_pct", "mean_missing_pct")}
        detail.update(shards=len(report.shards), workers=workers)
        return detail
    from repro.ckpt import bench
    return bench.measure_subprocess(
        target, bench.BENCH_DAYS, bench.BENCH_DAY_SECONDS,
        how == "streamed", seed=seed)


def peak_rss_kb():
    """This process's lifetime peak RSS in kilobytes (children included).

    ``ru_maxrss`` is a high-water mark for the whole process lifetime,
    so per-row values from one interpreter share a floor; rows that
    need an isolated envelope (the ``ckpt-*`` scenarios) measure in a
    fresh subprocess and carry their own ``max_rss_kb`` in the detail
    dict, which :func:`run_perf` prefers over this reading.
    """
    import resource

    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


class KernelTally:
    """Collects every :class:`Simulator` created inside a ``with`` block.

    Scenarios like the transport sweep build one simulator per trial;
    patching ``Simulator.__init__`` for the duration of the run is the
    least invasive way to aggregate ``dispatched``/``now`` across all
    of them without changing any scenario's return type.
    """

    def __init__(self):
        self.sims = []
        self._original = None

    def __enter__(self):
        self._original = kernel.Simulator.__init__
        sims, original = self.sims, self._original

        def tracking_init(sim, *args, **kwargs):
            original(sim, *args, **kwargs)
            sims.append(sim)

        kernel.Simulator.__init__ = tracking_init
        return self

    def __exit__(self, *exc_info):
        kernel.Simulator.__init__ = self._original
        return False

    @property
    def events(self):
        return sum(sim.dispatched for sim in self.sims)

    @property
    def sim_seconds(self):
        return sum(sim.now for sim in self.sims)


@dataclass
class PerfResult:
    """One scenario's measurements, ready for ``BENCH_perf.json``."""

    scenario: str
    seed: int
    wall_seconds: float
    events: int
    sim_seconds: float
    events_per_sec: float
    sim_seconds_per_wall_second: float
    simulators: int
    workers: int = 0        # 0 = single-process scenario
    max_rss_kb: int = 0     # peak RSS attributable to this row
    detail: dict = field(default_factory=dict)
    hot_frames: list = field(default_factory=list)   # [HotFrame]

    def to_dict(self):
        row = {
            "scenario": self.scenario,
            "seed": self.seed,
            "wall_seconds": self.wall_seconds,
            "events": self.events,
            "sim_seconds": self.sim_seconds,
            "events_per_sec": self.events_per_sec,
            "sim_seconds_per_wall_second": self.sim_seconds_per_wall_second,
            "simulators": self.simulators,
            "workers": self.workers,
            "max_rss_kb": self.max_rss_kb,
            "detail": self.detail,
        }
        if self.hot_frames:
            row["hot_frames"] = [f.to_dict() for f in self.hot_frames]
        return row


def run_perf(name, seed=0, profile=True, top=12, workers=None):
    """Measure row ``name`` of :data:`SCENARIOS`; returns a :class:`PerfResult`.

    ``workers`` sizes the process pool for sharded rows.  Their
    simulators live in worker processes where the parent's
    :class:`KernelTally` cannot see them, so event and sim-time totals
    come from the merged shard results instead; the profiled rerun is
    skipped because a parent-side profile would only rank pool
    bookkeeping and pickle frames, not simulation work.
    Subprocess-measured rows skip the profiled rerun for the same
    reason and report the child's own ``ru_maxrss`` as ``max_rss_kb``;
    every other row records this process's lifetime peak.  Unknown
    names raise ValueError with the available listing, and so does a
    worker count on a row that does not shard — silently ignored, it
    would corrupt cross-row comparisons in BENCH_perf.json.
    """
    try:
        how, target = SCENARIOS[name]
    except KeyError:
        raise ValueError("unknown perf scenario %r (have %s)"
                         % (name, ", ".join(sorted(SCENARIOS)))) from None
    if how == "sharded":
        workers = workers or 1
    elif workers:
        raise ValueError("--workers only applies to sharded scenarios, "
                         "not %r" % name)
    gc_was_enabled = gc.isenabled()
    with KernelTally() as tally:
        gc.disable()
        try:
            start = time.perf_counter()
            detail = _run_row(how, target, seed, workers)
            wall = time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
            gc.collect()
    if tally.sims:
        events = tally.events
        sim_seconds = tally.sim_seconds
        simulators = len(tally.sims)
    else:
        events = detail.get("dispatched", 0)
        sim_seconds = detail.get("sim_seconds", 0.0)
        simulators = detail.get("shards", 0)
    frames = []
    if profile and how in ("spec", "composite"):
        _, frames = capture_profile(
            lambda: _run_row(how, target, seed, None), top=top)
    rss = detail.get("max_rss_kb") or peak_rss_kb()
    return PerfResult(
        scenario=name,
        seed=seed,
        wall_seconds=round(wall, 6),
        events=events,
        sim_seconds=round(sim_seconds, 6),
        events_per_sec=round(events / wall, 3) if wall > 0 else 0.0,
        sim_seconds_per_wall_second=(
            round(sim_seconds / wall, 3) if wall > 0 else 0.0),
        simulators=simulators,
        workers=workers or 0,
        max_rss_kb=rss,
        detail=detail,
        hot_frames=frames)


def results_to_bench(results):
    """Wrap PerfResults in the machine-readable BENCH_perf envelope.

    ``cpus`` records the box's core count because sharded rows are
    meaningless without it: a 4-worker run on one core measures pool
    overhead, not parallel speedup.
    """
    return {
        "schema": BENCH_SCHEMA,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "max_rss_kb": peak_rss_kb(),
        "scenarios": sorted(SCENARIOS),
        "results": [r.to_dict() for r in results],
    }


def write_bench(results, path="BENCH_perf.json"):
    """Write ``BENCH_perf.json``; returns the path written."""
    with open(path, "w") as fh:
        json.dump(results_to_bench(results), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def format_result(result):
    """Human-readable report for one :class:`PerfResult`."""
    lines = [
        "scenario %s (seed %d%s)"
        % (result.scenario, result.seed,
           ", %d worker(s)" % result.workers if result.workers else ""),
        "  wall           %10.3f s" % result.wall_seconds,
        "  events         %10d   (%s/sec)"
        % (result.events, _si(result.events_per_sec)),
        "  sim time       %10.1f s  (%.1fx real time)"
        % (result.sim_seconds, result.sim_seconds_per_wall_second),
        "  simulators     %10d" % result.simulators,
        "  peak rss       %10.1f MB" % (result.max_rss_kb / 1024.0),
    ]
    for key, value in sorted(result.detail.items()):
        lines.append("  %-14s %10s" % (key, _compact(value)))
    if result.hot_frames:
        lines.append("  hot frames (by self time, profiled rerun):")
        for frame in result.hot_frames:
            lines.append("    " + frame.format())
    return "\n".join(lines)


def _si(value):
    if value >= 1e6:
        return "%.2fM" % (value / 1e6)
    if value >= 1e3:
        return "%.1fk" % (value / 1e3)
    return "%.0f" % value


def _compact(value):
    if isinstance(value, float):
        return "%.2f" % value
    if isinstance(value, dict):
        return "{%d keys}" % len(value)
    return str(value)
