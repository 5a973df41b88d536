"""Property: the kernel metrics survive any observatory change mid-run.

The fast loop of ``Simulator.run`` keeps ``sim.events_dispatched`` and
``sim.queue_depth`` in locals for the observatory it last saw and
lands them when the loop exits or meets a different one.  ``step()`` is
the oracle: it does an ``inc()`` and a ``set()`` per dispatch on
whatever ``sim.obs`` is at that moment.  Random programs whose
callbacks install, uninstall and swap observatories — one of them
clocked by another simulator — must leave every observatory with the
same rows under both loops, however the run is sliced into
``run()`` calls and even when a callback raises out of the loop.

Out of scope, as DESIGN.md records: a callback that re-points the
clock of the observatory currently installed (``obs.install(other)``
while it stays ``sim.obs``); the loop asks ``clocked_by`` once per
observatory it meets.
"""

from hypothesis import given, settings, strategies as st

from repro.obs import Observatory
from repro.obs.observatory import NULL_OBS
from repro.sim import Simulator
from tests.sim.differential import PlainHeapQueue

# Multiples of 1/8 s: exact floats, frequent ties.
ticks = st.integers(min_value=0, max_value=40).map(lambda n: n / 8.0)

ACTIONS = ("noop", "fork", "install_a", "install_b", "foreign",
           "uninstall", "boom")

programs = st.lists(st.tuples(ticks, st.sampled_from(ACTIONS)),
                    min_size=1, max_size=14)

#: How the program is cut into run() calls: deadlines, then a stop
#: event (the index picks which scheduled timeout), then run dry.
slicings = st.tuples(st.lists(ticks, max_size=3), st.integers(0, 13))

FOREIGN_NOW = 777.0


class Boom(Exception):
    pass


def run_program(make_queue, program, slicing, start_observed):
    sim = Simulator(queue=make_queue())
    elsewhere = Simulator(start_time=FOREIGN_NOW)
    named = {"a": Observatory(), "b": Observatory(),
             "foreign": Observatory(elsewhere)}
    if start_observed:
        named["a"].install(sim)

    def act(action):
        if action == "fork":
            sim.sleep(0.0)
            sim.sleep(0.25)
        elif action == "install_a":
            named["a"].install(sim)
        elif action == "install_b":
            named["b"].install(sim)
        elif action == "foreign":
            sim.obs = named["foreign"]
        elif action == "uninstall":
            if sim.obs is named["foreign"]:
                sim.obs = NULL_OBS      # leave the foreign clock alone
            elif sim.obs.enabled:
                sim.obs.uninstall()
        elif action == "boom":
            raise Boom()

    timeouts = []
    for delay, action in program:
        timeout = sim.sleep(delay)
        timeout.callbacks.append(lambda _evt, action=action: act(action))
        timeouts.append(timeout)

    def run(until=None):
        while True:
            try:
                return sim.run(until)
            except Boom:
                # The loop was left through a raising callback; go
                # back in and finish the slice.
                continue

    deadlines, stop_index = slicing
    for deadline in sorted(deadlines):
        if deadline >= sim.now:
            run(deadline)
    run(timeouts[stop_index % len(timeouts)])
    run()
    return (sim.now, sim.dispatched,
            {name: obs.metrics.rows() for name, obs in named.items()})


@settings(max_examples=150)
@given(programs, slicings, st.booleans())
def test_every_loop_leaves_every_observatory_the_same_rows(
        program, slicing, start_observed):
    assert run_program(lambda: None, program, slicing, start_observed) \
        == run_program(PlainHeapQueue, program, slicing, start_observed)


def test_a_foreign_observatory_stamps_with_its_own_clock():
    """The pinned example: stamps are what ``obs.time()`` returned."""
    for make_queue in (PlainHeapQueue, lambda: None):
        _now, _dispatched, rows = run_program(
            make_queue, [(1.0, "foreign"), (2.0, "noop"), (3.0, "noop")],
            ([], 2), True)
        by_metric = {row["metric"]: row for row in rows["foreign"]}
        assert by_metric["sim.events_dispatched"]["value"] == 2
        assert by_metric["sim.events_dispatched"]["last_update"] \
            == FOREIGN_NOW
        assert by_metric["sim.queue_depth"]["last_update"] == FOREIGN_NOW
        own = {row["metric"]: row for row in rows["a"]}
        assert own["sim.events_dispatched"]["value"] == 1
        assert own["sim.events_dispatched"]["last_update"] == 1.0
