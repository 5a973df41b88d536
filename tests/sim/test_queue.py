"""Unit tests for the kernel's event queue (repro.sim.queue)."""

import pytest

from repro.sim import Simulator
from repro.sim.events import Timeout
from repro.sim.pool import default_pooling
from repro.sim.queue import HeapQueue, default_kind
from tests.sim.differential import PlainHeapQueue


def entry(when, prio=1, seq=0):
    return (when, prio, seq, None)


def test_heap_queue_peeks_len_and_repr():
    queue = HeapQueue()
    first, second = entry(1.0, seq=0), entry(2.0, seq=1)
    queue.push(second)
    queue.push(first)
    assert "pending=2" in repr(queue)
    assert queue.peek_entry() == first
    assert queue.peek_when() == 1.0
    assert [queue.pop(), queue.pop()] == [first, second]
    assert len(queue) == 0
    assert queue.peek_entry() is None
    assert queue.peek_when() is None
    with pytest.raises(IndexError):
        queue.pop()


def test_the_names_perfbench_imports_are_constants():
    """``perfbench/run.py`` stamps these into its result envelope."""
    assert (default_kind(), default_pooling()) == ("heap", "off")


# ---------------------------------------------------------------------------
# Kernel integration


def test_simulator_accepts_queue_instance():
    queue = PlainHeapQueue()
    sim = Simulator(start_time=10.0, queue=queue)
    fired = []

    def waiter():
        value = yield Timeout(sim, 2.5, "tick")
        fired.append(value)

    sim.process(waiter())
    assert sim._queue is queue
    assert sim.peek_entry()[0] == 10.0
    assert sim.peek_entry()[3] is not None
    sim.run()
    assert fired == ["tick"] and sim.now == 12.5
    assert sim.peek_entry() is None
    assert sim.peek_entry() is None
    assert "queued=0" in repr(sim)


@pytest.mark.parametrize("loop", ("heap", "plain"))
def test_stale_same_instant_remnant_respects_earlier_deadline(loop):
    """A same-instant event left queued by run(until=Event) must not
    run under a later call with an earlier deadline — on either loop."""
    sim = Simulator(queue=PlainHeapQueue() if loop == "plain" else None)
    first = sim.sleep(5.0)
    second = sim.sleep(5.0)
    third = sim.sleep(5.0)
    sim.run(until=first)
    assert sim.dispatched == 1
    # The event-stopped loop broke right after ``first``: its
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
