"""The parked trickle daemon against the polling oracle.

One client on one link runs a random plan: direct state transitions
(weak, down), reconnections through the probe path, strong-connection
promotions that drain the log, forced drains (``Venus.sync``), CML
appends of small and fragment-sized files, link outages, and client
crashes restored from a snapshot after a downtime.  The daemon period
and every action instant are arbitrary floats, and some instants are
snapped onto the daemon's grid (its start plus ``period`` added k
times), the way the probe daemon's 60 s ticks land on the 10 s grid.
The plan runs once with :class:`~repro.core.trickle.TrickleReintegrator`
and once with :class:`~tests.core.polling_oracle.PollingTrickle`;
every chunk and fragment must ship at the same instant with the same
records, and every incarnation's ``TrickleStats``, the final state,
the log and the server's namespace must be equal.

Every action is armed when the plan starts, so an action that lands
on a grid instant was armed at least one period before it, like the
probe's tick.  A transition caused at a grid instant by a timer armed
less than a period before it is the one schedule where the two
daemons differ: the polling daemon's wake for that instant is already
queued ahead of the timer and misses the transition until the next
instant, while the parked daemon, woken by it, checks at the instant
itself.  ``test_a_transition_on_the_grid_is_seen_at_that_instant``
pins that difference.

Three planted daemons must fail on a pinned plan: one that re-arms
from the wake instant, one that re-arms by multiplying the period, and
one that is never woken by the end of a drain.
"""

import math
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import ConnectionStrength
from repro.core.trickle import TrickleReintegrator
from repro.faults.persistence import (
    namespace_digest,
    restore_venus,
    snapshot_venus,
)
from repro.net import ETHERNET, ISDN, MODEM, WAVELAN
from repro.rpc2 import ConnectionDead
from repro.sim import At, Interrupt
from repro.spec.testbed import make_testbed, populate_volume, warm_cache
from repro.venus import VenusConfig, VenusState
from repro.venus.errors import CacheMissError, OfflineError
from repro.venus.states import IllegalTransition
from tests.core.polling_oracle import PollingTrickle, planted

M = "/coda/usr/u"
TREE = {
    M + "/dir": ("dir", 0),
    M + "/dir/a.txt": ("file", 4_000),
    M + "/dir/b.txt": ("file", 12_000),
}
#: Every action is armed at the plan's start and lands within
#: ``SPAN`` seconds of it; the run then settles for ``SETTLE``.
SPAN, SETTLE = 900.0, 900.0
PROFILES = {"modem": MODEM, "isdn": ISDN, "wavelan": WAVELAN,
            "ethernet": ETHERNET}
#: How an action may end besides "ok": a write waiting on a process
#: the crash killed is interrupted with it, and two connected writes
#: of one file race at the server (OSError: exists, conflict).
FAILURES = (OfflineError, ConnectionDead, CacheMissError, Interrupt,
            OSError, IllegalTransition)


class Recorder:
    """Mixin: log every chunk and fragment with its instant."""

    def _reintegrate_frozen(self, chunk, preshipped):
        log = self.venus.plan_log
        log.append(("ship", self.sim.now, self.venus.incarnation,
                    tuple((r.seqno, r.op.value, r.size) for r in chunk),
                    tuple(sorted(preshipped))))
        yield from super()._reintegrate_frozen(chunk, preshipped)
        log.append(("shipped", self.sim.now, len(self.venus.cml)))

    def _ship_fragments(self, record, budget):
        self.venus.plan_log.append(("fragments", self.sim.now,
                                    record.seqno, int(budget)))
        yield from super()._ship_fragments(record, budget)


def timeline(daemon_cls, world, plan):
    """Everything the plan's run shipped, and where it ended."""
    profile, period, aging, seed = world
    config = VenusConfig(daemon_period=period, aging_window=aging)
    log = []
    recorded = type("Recorded", (Recorder, daemon_cls), {})
    with planted(recorded):
        testbed = make_testbed(PROFILES[profile], venus_config=config,
                               seed=seed)
        sim = testbed.sim
        incarnations = [testbed.venus]

        def adopt(venus):
            venus.plan_log = log
            venus.incarnation = len(incarnations) - 1

        adopt(testbed.venus)
        volume = populate_volume(testbed.server, M, TREE)
        warm_cache(testbed.venus, testbed.server, volume)
        testbed.run(testbed.venus.connect())
        armed = sim.now
        # The daemon's grid as it stood at its start: 0 + period + ...
        grid, instants = 0.0, []
        while grid < armed + SPAN:
            grid += period
            if grid >= armed + period:
                instants.append(grid)

        def act(index, when, action):
            yield At(sim, when)
            venus = testbed.venus
            kind = action[0]
            if venus.crashed:
                if kind == "crash":
                    return
                log.append(("skipped", sim.now, index, kind))
                return
            try:
                if kind == "write":
                    _, name, size = action
                    yield from venus.write_file(
                        M + "/dir/w%d" % name, b"x" * size)
                elif kind == "weak":
                    venus.state.transition(VenusState.WRITE_DISCONNECTED,
                                           sim.now)
                elif kind == "down":
                    venus.handle_disconnection()
                elif kind == "connect":
                    yield from venus.connect()
                elif kind == "strong":
                    if venus.state.state is not VenusState.EMULATING:
                        yield from venus._maybe_promote(
                            ConnectionStrength.STRONG)
                elif kind == "sync":
                    yield from venus.sync()
                elif kind == "outage":
                    testbed.link.outage(0.0, action[1])
                elif kind == "crash":
                    snapshot = snapshot_venus(venus)
                    venus.crash()
                    yield sim.sleep(action[1])
                    restored = restore_venus(snapshot, sim, testbed.net,
                                             venus.endpoint.host)
                    incarnations.append(restored)
                    adopt(restored)
                    testbed.venus = restored
                outcome = "ok"
            except FAILURES as exc:
                outcome = type(exc).__name__
            log.append(("acted", sim.now, index, kind, outcome))

        for index, (slot, action) in enumerate(plan):
            if slot[0] == "grid":
                when = instants[slot[1] % len(instants)]
            else:
                when = armed + slot[1]
            sim.process(act(index, when, action), name="act%d" % index)
        sim.run(until=armed + SPAN + SETTLE)
    venus = testbed.venus
    return (log, [asdict(v.trickle.stats) for v in incarnations],
            venus.state.state, len(venus.cml),
            namespace_digest(testbed.server))


slots = st.one_of(
    st.tuples(st.just("at"), st.floats(0.0, SPAN)),
    st.tuples(st.just("grid"), st.integers(0, 10_000)),
)
actions = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 5),
              st.sampled_from([200, 3_000, 60_000])),
    st.tuples(st.just("write"), st.integers(0, 5), st.just(700)),
    st.tuples(st.sampled_from(["weak", "down", "connect", "strong",
                               "sync"])),
    st.tuples(st.just("outage"), st.floats(1.0, 200.0)),
    st.tuples(st.just("crash"), st.floats(0.5, 120.0)),
)
plans = st.lists(st.tuples(slots, actions), min_size=1, max_size=12)
worlds = st.tuples(
    st.sampled_from(sorted(PROFILES)),
    st.one_of(st.just(10.0), st.floats(1.0, 30.0)),
    st.sampled_from([0.0, 45.0, 600.0]),
    st.integers(0, 2 ** 16),
)

#: Pinned plans, one per planted daemon (each fails on its own).
#: A write logged while emulating, a reconnection off the grid, and
#: the chunk ships at the next grid instant.
REARM_PLAN = (("modem", 10.0, 0.0, 0),
              [(("at", 3.0), ("down",)),
               (("at", 5.0), ("write", 0, 700)),
               (("at", 47.25), ("weak",))])
#: The same on a grid whose instants are not multiples of the period:
#: a period of 0.7 s, re-anchored at the float instant a pass returned.
MULTIPLY_PLAN = (("modem", 0.7, 0.0, 0),
                 [(("at", 3.0), ("write", 0, 700)),
                  (("at", 60.0), ("down",)),
                  (("at", 61.0), ("write", 1, 700)),
                  (("at", 233.3), ("weak",))])
#: A forced drain holds the log across grid instants, ends write
#: disconnected, and a later write must still trickle.
DRAIN_PLAN = (("modem", 10.0, 0.0, 0),
              [(("at", 1.0), ("write", 0, 60_000)),
               (("at", 2.0), ("sync",)),
               (("at", 200.0), ("write", 1, 700))])


@settings(max_examples=100)
@given(worlds, plans)
@example(*REARM_PLAN)
@example(*MULTIPLY_PLAN)
@example(*DRAIN_PLAN)
@example(("ethernet", 10.0, 600.0, 1),
         [(("grid", 5), ("weak",)), (("at", 10.0), ("write", 2, 3_000)),
          (("grid", 30), ("crash", 33.3)), (("grid", 70), ("sync",))])
def test_the_parked_daemon_ships_what_the_polling_daemon_ships(world, plan):
    assert timeline(TrickleReintegrator, world, plan) \
        == timeline(PollingTrickle, world, plan)


# ----------------------------------------------------------------------
# Planted daemons


class RearmFromWake(TrickleReintegrator):
    """Re-arms ``period`` after the wake, off the grid."""

    def _run(self):
        period, sim, venus = self.config.daemon_period, self.sim, self.venus
        grid = sim.now
        while True:
            grid += period
            yield At(sim, grid)
            if venus.state.state is not VenusState.WRITE_DISCONNECTED \
                    or self._draining:
                self._parked = parked = sim.event()
                yield parked
                grid = sim.now
                continue
            yield from self._pass(venus.effective_aging_window(),
                                  defer_to_foreground=True)
            grid = sim.now


class RearmByMultiplying(TrickleReintegrator):
    """Checks at ``anchor + k * period``: right instant, wrong float."""

    def _run(self):
        period, sim, venus = self.config.daemon_period, self.sim, self.venus
        anchor, k = sim.now, 0
        while True:
            k += 1
            yield At(sim, anchor + k * period)
            if venus.state.state is not VenusState.WRITE_DISCONNECTED \
                    or self._draining:
                self._parked = parked = sim.event()
                yield parked
                k = max(k, math.ceil((sim.now - anchor) / period) - 1)
                while anchor + (k + 1) * period < sim.now:
                    k += 1
                continue
            yield from self._pass(venus.effective_aging_window(),
                                  defer_to_foreground=True)
            anchor, k = sim.now, 0


class DeafToDrains(TrickleReintegrator):
    """Never woken by the end of a drain."""

    def drain(self):
        self._wake = lambda: None
        try:
            return (yield from super().drain())
        finally:
            del self._wake


@pytest.mark.parametrize("mutant, pinned", [
    (RearmFromWake, REARM_PLAN),
    (RearmByMultiplying, MULTIPLY_PLAN),
    (DeafToDrains, DRAIN_PLAN),
], ids=["rearm-from-wake", "rearm-by-multiplying", "deaf-to-drains"])
def test_each_planted_daemon_fails_its_pinned_plan(mutant, pinned):
    oracle = timeline(PollingTrickle, *pinned)
    assert timeline(TrickleReintegrator, *pinned) == oracle
    assert timeline(mutant, *pinned) != oracle


def test_a_transition_on_the_grid_is_seen_at_that_instant():
    """A transition at grid instant g by a timer armed after g - period
    runs behind the polling daemon's wake for g and waits for g +
    period there; the parked daemon is woken by it and ships at g."""

    def ships(daemon_cls):
        with planted(type("Recorded", (Recorder, daemon_cls), {})):
            testbed = make_testbed(MODEM, venus_config=VenusConfig(
                aging_window=0.0, start_daemons=False))
        sim, venus = testbed.sim, testbed.venus
        venus.plan_log, venus.incarnation = [], 0
        volume = populate_volume(testbed.server, M, TREE)
        warm_cache(venus, testbed.server, volume)
        venus.trickle.start()
        testbed.run(venus.write_file(M + "/dir/w0", b"x" * 700))
        assert venus.state.state is VenusState.EMULATING

        def weak_at_50():
            yield At(sim, 47.0)
            yield sim.sleep(3.0)      # armed 3 s before the grid's 50.0
            venus.state.transition(VenusState.WRITE_DISCONNECTED, sim.now)

        sim.process(weak_at_50())
        sim.run(until=200.0)
        return [entry[1] for entry in venus.plan_log if entry[0] == "ship"]

    assert ships(PollingTrickle) == [60.0]
    assert ships(TrickleReintegrator) == [50.0]
