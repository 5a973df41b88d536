"""Unit tests for the pluggable scheduler layer (repro.sim.queue)."""

import os

import pytest

from repro.sim import Simulator
from repro.sim.queue import (
    MIN_WIDTH,
    OVERFLOW_SPAN,
    RESIZE_AT,
    CalendarQueue,
    HeapQueue,
    default_kind,
    make_queue,
    register_kind,
    set_default_kind,
    use_kind,
)


def entry(when, prio=1, seq=0):
    return (when, prio, seq, None)


# ---------------------------------------------------------------------------
# Registry and default kind


def test_make_queue_builds_registered_kinds():
    assert isinstance(make_queue("heap"), HeapQueue)
    assert isinstance(make_queue("calendar"), CalendarQueue)


def test_make_queue_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown queue kind"):
        make_queue("fibonacci")
    with pytest.raises(ValueError, match="unknown queue kind"):
        set_default_kind("fibonacci")


def test_make_queue_passes_instances_through():
    queue = HeapQueue()
    assert make_queue(queue) is queue


def test_use_kind_restores_default_and_mirrors_env():
    before = default_kind()
    other = "heap" if before != "heap" else "calendar"
    with use_kind(other):
        assert default_kind() == other
        assert os.environ["REPRO_QUEUE"] == other
        assert isinstance(make_queue(), make_queue(other).__class__)
    assert default_kind() == before
    assert os.environ["REPRO_QUEUE"] == before


def test_register_kind_makes_new_kinds_buildable():
    class Custom(HeapQueue):
        kind = "custom-unit-test"

    register_kind(Custom.kind, Custom)
    assert isinstance(make_queue("custom-unit-test"), Custom)


# ---------------------------------------------------------------------------
# HeapQueue specifics


def test_heap_queue_cancel_and_repr():
    queue = HeapQueue()
    first, second = entry(1.0, seq=0), entry(2.0, seq=1)
    queue.push(first)
    queue.push(second)
    assert "pending=2" in repr(queue)
    assert queue.cancel(second) is True
    assert queue.cancel(second) is False
    assert queue.pop() == first
    assert len(queue) == 0
    assert queue.peek_entry() is None
    assert queue.peek_when() is None


# ---------------------------------------------------------------------------
# CalendarQueue specifics


def test_calendar_repr_names_the_geometry():
    queue = CalendarQueue()
    queue.push(entry(3.5))
    text = repr(queue)
    assert "CalendarQueue" in text
    assert "pending=1" in text


def test_calendar_pop_empty_raises_index_error():
    with pytest.raises(IndexError):
        CalendarQueue().pop()


def test_calendar_cancel_every_tier():
    queue = CalendarQueue()
    at_now = entry(0.0, prio=0, seq=0)          # urgent lane
    at_now_normal = entry(0.0, prio=1, seq=1)   # normal lane
    near = entry(2.0, seq=2)                    # bucket
    near_twin = entry(2.0, seq=3)               # same bucket (kept)
    far = entry(10_000.0, seq=4)                # overflow tier
    for item in (at_now, at_now_normal, near, near_twin, far):
        queue.push(item)
    assert len(queue) == 5
    assert queue.cancel(at_now) is True
    assert queue.cancel(at_now_normal) is True
    assert queue.cancel(near) is True           # heapified remainder
    assert queue.cancel(far) is True
    assert queue.cancel(entry(99.0, seq=77)) is False
    assert [queue.pop()] == [near_twin]
    # Cancelling the last bucket occupant leaves a stale active index
    # that peek/advance must skip over.
    lone = entry(3.0, seq=8)
    queue.push(lone)
    assert queue.cancel(lone) is True
    assert queue.peek_entry() is None
    assert len(queue) == 0


def test_calendar_overflow_and_bucket_merge_equal_times():
    queue = CalendarQueue()
    # Pushed while 9000 is beyond the overflow horizon (4096 widths):
    over = entry(9_000.0, prio=1, seq=0)
    queue.push(over)
    stepper = entry(4_000.0, seq=1)
    queue.push(stepper)
    assert queue.pop() == stepper               # instant -> 4000
    # Now 9000 is within the horizon: lands in a bucket, equal-time
    # with the overflow resident — and with the smaller priority must
    # still pop *after* nothing, i.e. strict tuple order holds.
    bucketed = entry(9_000.0, prio=0, seq=2)
    queue.push(bucketed)
    assert queue.pop() == bucketed
    assert queue.pop() == over
    assert len(queue) == 0


def test_calendar_infinity_lives_in_overflow():
    queue = CalendarQueue()
    never = entry(float("inf"), seq=0)
    queue.push(never)
    soon = entry(1.0, seq=1)
    queue.push(soon)
    assert queue.peek_when() == 1.0
    assert queue.pop() == soon
    assert queue.pop() == never
    # Once the instant is infinite, further "never" pushes are ties.
    later = entry(float("inf"), seq=2)
    queue.push(later)
    assert queue.pop() == later


def test_calendar_resize_clamps_denormal_spans():
    queue = CalendarQueue()
    entries = [entry(1.0 + i * 1e-13, seq=i) for i in range(RESIZE_AT + 6)]
    for item in entries:
        queue.push(item)
    assert queue._width == MIN_WIDTH
    assert [queue.pop() for _ in entries] == sorted(entries)


def test_calendar_resize_with_identical_times_keeps_width():
    queue = CalendarQueue()
    entries = [entry(7.0, prio=i % 2, seq=i)
               for i in range(RESIZE_AT + 6)]
    for item in entries:
        queue.push(item)
    assert queue._width == 1.0      # zero span: width untouched
    assert [queue.pop() for _ in entries] == sorted(entries)


def test_overflow_horizon_is_relative_to_the_instant():
    queue = CalendarQueue()
    inside = entry(OVERFLOW_SPAN - 1.0, seq=0)
    outside = entry(OVERFLOW_SPAN + 10.0, seq=1)
    queue.push(inside)
    queue.push(outside)
    assert len(queue._overflow) == 1
    assert queue.pop() == inside
    assert queue.pop() == outside


# ---------------------------------------------------------------------------
# Kernel integration


@pytest.mark.parametrize("kind", ("heap", "calendar"))
def test_simulator_accepts_queue_kind(kind):
    sim = Simulator(queue=kind)
    fired = []

    def waiter():
        value = yield sim.timeout(2.5, value="tick")
        fired.append(value)

    sim.process(waiter())
    sim.run()
    assert fired == ["tick"]
    assert sim.peek() is None
    assert sim.peek_entry() is None
    assert "queued=0" in repr(sim)


def test_simulator_accepts_queue_instance():
    queue = CalendarQueue(start_time=10.0)
    sim = Simulator(start_time=10.0, queue=queue)
    sim.timeout(1.0)
    assert sim._queue is queue
    assert sim.peek() == 11.0
    assert sim.peek_entry()[3] is not None


@pytest.mark.parametrize("kind", ("heap", "calendar"))
def test_stale_same_instant_remnant_respects_earlier_deadline(kind):
    """A same-instant event left queued by run(until=Event) must not
    run under a later call with an earlier deadline — on any kind."""
    sim = Simulator(queue=kind)
    first = sim.timeout(5.0)
    second = sim.timeout(5.0)
    third = sim.timeout(5.0)
    sim.run(until=first)
    assert sim.dispatched == 1
    # The event-stopped fast loop broke right after ``first``: its
    # same-instant companions are still queued, in order.
    assert sim.peek_entry()[3] is second
    sim.run(until=2.0)          # deadline before the remnant's time
    assert sim.dispatched == 1
    sim.run(until=second)       # the next event-stopped run resumes there
    assert sim.dispatched == 2
    assert sim.peek_entry()[3] is third
    sim.run(until=5.0)
    assert sim.dispatched == 3
    assert sim.peek_entry() is None
