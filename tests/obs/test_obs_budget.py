"""The observation budget: calls into ``repro/obs`` per dispatched event.

A clock-free gate.  An instrumented fleet shard is profiled and every
Python call whose code lives under ``repro/obs/`` is counted; the count
is a pure function of (scenario, seed, length), so the assertion needs
no tolerance for a noisy box.  Before the per-dispatch and per-packet
sites stopped going through the registry this ratio was ~11.4.  It
read ~1.05–1.15 while an RPC2 packet cost seven dispatches and
~1.5–1.6 once it cost three: the same calls into ``repro/obs``,
spread over fewer dispatches.  The parked trickle daemon took another
~27 % of the dispatches away (2.2 per dispatch), and metric stamps
that read ``sim.now`` without a Python frame took a third of the
calls: 1.22 at three hours and 1.15 at six.  A ping that costs eight
dispatches, not eleven, and Vice handlers run inside their calls took
~12 % of the dispatches: it reads 1.39 and 1.32.  The budget is 1.5;
one restored per-dispatch ``inc()`` breaks it.

It must also stay *flat*: a ratio that grows with the length of the
run is per-event work that scales with history (the log×cache
quadratic PR 12 removed had exactly that signature and no timing gate
ever saw it).
"""

import cProfile
import os

from repro.fleetd.executor import run_shard
from repro.fleetd.plan import plan_shards
from repro.sim.events import Event, Timeout

BUDGET = 1.5
#: Three and six simulated hours of the shard.
SHORT_DAYS, LONG_DAYS = 3 / 24, 6 / 24


def profiled(thunk):
    """``(profile, thunk())`` with every Python call of ``thunk`` counted."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = thunk()
    finally:
        profile.disable()
    return profile, result


def calls_into(package, profile):
    """Calls whose code lives under ``repro/<package>/``."""
    prefix = os.path.join("repro", package) + os.sep
    return sum(entry.callcount for entry in profile.getstats()
               if prefix in getattr(entry.code, "co_filename", ""))


def profiled_shard(days, instrument=True):
    """``(profile, events dispatched)`` of one fleet-8 shard."""
    shard = plan_shards("fleet-8", seed=0, days=days)[0]
    profile, result = profiled(
        lambda: run_shard(shard, instrument=instrument))
    assert result.dispatched > 10_000
    return profile, result.dispatched


def calls_per_dispatch(package, days, instrument=True):
    """(calls into repro/<package>) / (events dispatched), one fleet-8 shard.

    Shared, with the helpers above, by ``tests/sim/test_kernel_budget.py``
    and ``tests/venus/test_complexity_gate.py``.
    """
    profile, dispatched = profiled_shard(days, instrument)
    return calls_into(package, profile) / dispatched


def test_observation_costs_at_most_two_calls_per_dispatch_and_stays_flat():
    short = calls_per_dispatch("obs", SHORT_DAYS)
    long = calls_per_dispatch("obs", LONG_DAYS)
    assert short <= BUDGET and long <= BUDGET, (short, long)
    # Fixed per-run costs (export, first-use registry lookups) thin out
    # over a longer day; per-event cost must not grow to replace them.
    assert long <= short * 1.05, (short, long)


def test_one_restored_per_dispatch_inc_breaks_the_budget(monkeypatch):
    """Planted mutant: the kernel counter goes back to an ``inc()`` per
    dispatch (on a held handle — the cheapest form it ever had)."""
    held = {}

    def counted(process):
        def _process(event):
            obs = event.sim.obs
            if obs.enabled:
                counter = held.get(obs)
                if counter is None:
                    counter = held[obs] = obs.metrics.counter(
                        "sim.events_dispatched")
                counter.inc()
            process(event)
        return _process

    monkeypatch.setattr(Event, "_process", counted(Event._process))
    monkeypatch.setattr(Timeout, "_process", counted(Timeout._process))
    assert calls_per_dispatch("obs", SHORT_DAYS) > BUDGET
