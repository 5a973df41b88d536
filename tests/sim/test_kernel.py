"""Kernel semantics: ordering, time, run-until."""

import pytest

from repro.sim import Simulator
from repro.sim.events import Timeout, UnhandledFailure

from tests.sim.differential import PlainHeapQueue


def test_time_starts_at_zero(sim):
    assert sim.now == 0.0


def test_timeout_advances_time(sim):
    log = []

    def proc():
        yield sim.sleep(5.0)
        log.append(sim.now)
        yield sim.sleep(2.5)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [5.0, 7.5]


def test_events_fire_in_time_order(sim):
    order = []
    for delay in (3.0, 1.0, 2.0):
        def proc(d=delay):
            yield sim.sleep(d)
            order.append(d)
        sim.process(proc())
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_fifo_among_simultaneous_events(sim):
    order = []
    for tag in range(5):
        def proc(t=tag):
            yield sim.sleep(1.0)
            order.append(t)
        sim.process(proc())
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_time_stops_early(sim):
    log = []

    def proc():
        for _ in range(10):
            yield sim.sleep(1.0)
            log.append(sim.now)

    sim.process(proc())
    sim.run(until=3.5)
    assert log == [1.0, 2.0, 3.0]
    assert sim.now == 3.5


def test_run_until_event_returns_value(sim):
    def proc():
        yield sim.sleep(2.0)
        return "done"

    result = sim.run(sim.process(proc()))
    assert result == "done"
    assert sim.now == 2.0


def test_run_until_event_raises_failure(sim):
    def proc():
        yield sim.sleep(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        sim.run(sim.process(proc()))


def test_run_dry_before_event_raises(sim):
    never = sim.event()
    with pytest.raises(RuntimeError, match="ran dry"):
        sim.run(never)


def test_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.sleep(-1.0)
    with pytest.raises(ValueError):
        sim.sleep(-1.0)


def test_peek_shows_next_event_time(sim):
    assert sim.peek_entry() is None
    sim.sleep(4.0)
    sim.sleep(2.0)
    assert sim.peek_entry()[0] == 2.0


def test_unhandled_process_failure_surfaces(sim):
    def proc():
        yield sim.sleep(1.0)
        raise RuntimeError("unseen")

    sim.process(proc())
    with pytest.raises(UnhandledFailure):
        sim.run()


def test_nested_processes_return_values(sim):
    def inner():
        yield sim.sleep(1.0)
        return 42

    def outer():
        value = yield sim.process(inner())
        return value + 1

    assert sim.run(sim.process(outer())) == 43


def test_yield_from_chains_through_generators(sim):
    def helper():
        yield sim.sleep(2.0)
        return "deep"

    def outer():
        value = yield from helper()
        return value

    assert sim.run(sim.process(outer())) == "deep"
    assert sim.now == 2.0


def test_process_yielding_non_event_fails(sim):
    def proc():
        yield 42

    with pytest.raises(RuntimeError, match="not an Event"):
        sim.run(sim.process(proc()))


# ---------------------------------------------------------------------------
# Event-stopped runs share the dispatch loops with timed runs


@pytest.fixture(params=("heap", "plain"))
def loop_sim(request):
    """One simulator per dispatch loop in ``Simulator.run``: the fast
    loop over the kernel's own heap, and ``step()`` per event."""
    return Simulator(
        queue=PlainHeapQueue() if request.param == "plain" else None)


def test_run_until_processed_event_returns_without_dispatching(loop_sim):
    sim = loop_sim
    done = Timeout(sim, 1.0, "early")
    sim.sleep(1.0)
    sim.sleep(2.0)
    assert sim.run(until=done) == "early"
    assert sim.dispatched == 1
    # Asking again changes nothing: not the clock, not the queue.
    assert sim.run(until=done) == "early"
    assert (sim.dispatched, sim.now) == (1, 1.0)
    assert sim.peek_entry()[0] == 1.0


def test_run_until_processed_failed_event_reraises(loop_sim):
    sim = loop_sim

    def proc():
        yield sim.sleep(1.0)
        raise ValueError("boom")

    failed = sim.process(proc())
    for _ in range(2):
        with pytest.raises(ValueError, match="boom"):
            sim.run(until=failed)
    assert sim.now == 1.0


def test_run_dry_reports_after_draining_the_queue(loop_sim):
    sim = loop_sim
    sim.sleep(3.0)
    with pytest.raises(RuntimeError, match="ran dry"):
        sim.run(until=sim.event())
    assert (sim.dispatched, sim.now) == (1, 3.0)
    assert sim.peek_entry() is None


def test_a_retained_sleep_event_is_an_ordinary_event_after_it_fires(loop_sim):
    sim = loop_sim
    nap = sim.sleep(2.0)
    resumed = []

    def waiter():
        yield nap
        resumed.append(sim.now)

    sim.process(waiter())
    sim.run(until=3.0)
    assert nap._processed and nap._ok is True and nap.value is None
    # Yielding it again a second after it fired resumes on the spot.
    sim.process(waiter())
    sim.run()
    assert resumed == [2.0, 3.0]


def test_event_stopped_run_counts_dispatches_exactly(loop_sim):
    sim = loop_sim

    def ticker():
        for _ in range(10):
            yield sim.sleep(1.0)

    sim.process(ticker())
    stop = sim.sleep(4.5)
    sim.run(until=stop)
    # Process bootstrap, four sleeps, the stop itself; nothing later.
    assert (sim.dispatched, sim.now) == (6, 4.5)
    sim.run()
    assert sim.dispatched == 6 + 6 + 1    # six sleeps, process completion


def test_step_override_sees_every_dispatch_of_an_event_stopped_run(loop_sim):
    sim = loop_sim
    seen = []
    original_step = sim.step

    def logging_step():
        seen.append(sim.peek_entry()[:3])
        original_step()

    sim.step = logging_step
    sim.sleep(1.0)
    stop = sim.sleep(2.0)
    sim.sleep(2.0)
    sim.sleep(3.0)
    sim.run(until=stop)
    assert [when for when, _prio, _seq in seen] == [1.0, 2.0]
    assert sim.dispatched == 2
