"""The observation budget: calls into ``repro/obs`` per packet sent.

A clock-free gate.  An instrumented fleet shard is profiled and every
Python call whose code lives under ``repro/obs/`` is counted; the count
is a pure function of (scenario, seed, length), so the assertion needs
no tolerance for a noisy box.  Before the per-dispatch and per-packet
sites stopped going through the registry this cost ~11.4 calls per
dispatched event.

The unit is the shard's packets sent, which dispatch work does not
move.  Until this gate was re-based it divided by dispatched events,
so every unrelated dispatch cut inflated it without one more obs call:
1.05–1.15 per dispatch while an RPC2 packet cost seven dispatches,
~1.5–1.6 once it cost three, 1.22/1.15 after the trickle daemon parked
and metric stamps stopped costing a frame, and 1.39/1.32 once pings
and Vice handlers stopped spawning processes.  The same shard reads
8.06 and 7.70 calls per packet sent at three and six hours (2,114 and
4,061 packets); the budget is the first reading plus 8 %, the headroom
the per-dispatch budget had.  One restored per-dispatch ``inc()``
breaks it.

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

BUDGET = 8.06 * 1.08
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


def packets_sent(result):
    """Packets the shard's links sent, from its observatory's counters."""
    return sum(row["value"] for row in result.metrics_rows
               if row["metric"] == "link.packets_sent")


def obs_calls_per_packet(days):
    """(calls into repro/obs) / (packets sent), one instrumented fleet-8
    shard."""
    shard = plan_shards("fleet-8", seed=0, days=days)[0]
    profile, result = profiled(lambda: run_shard(shard))
    packets = packets_sent(result)
    assert packets > 1_000
    return calls_into("obs", profile) / packets


def test_observation_costs_a_bounded_number_of_calls_per_packet_and_stays_flat():
    short = obs_calls_per_packet(SHORT_DAYS)
    long = obs_calls_per_packet(LONG_DAYS)
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
    assert obs_calls_per_packet(SHORT_DAYS) > BUDGET
