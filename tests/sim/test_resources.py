"""Locks and stores."""

import pytest

from repro.sim import Lock, Store


def test_lock_mutual_exclusion(sim):
    lock = Lock(sim)
    trace = []

    def worker(tag, hold):
        yield lock.acquire()
        trace.append(("in", tag, sim.now))
        yield sim.sleep(hold)
        trace.append(("out", tag, sim.now))
        lock.release()

    sim.process(worker("a", 2.0))
    sim.process(worker("b", 1.0))
    sim.run()
    assert trace == [("in", "a", 0.0), ("out", "a", 2.0),
                     ("in", "b", 2.0), ("out", "b", 3.0)]


def test_lock_fifo_order(sim):
    lock = Lock(sim)
    order = []

    def worker(tag):
        yield lock.acquire()
        order.append(tag)
        yield sim.sleep(1.0)
        lock.release()

    for tag in range(4):
        sim.process(worker(tag))
    sim.run()
    assert order == [0, 1, 2, 3]


def test_release_unlocked_raises(sim):
    with pytest.raises(RuntimeError):
        Lock(sim).release()


def test_store_put_then_get(sim):
    store = Store(sim)
    store.put("x")

    def getter():
        value = yield store.get()
        return value

    assert sim.run(sim.process(getter())) == "x"


def test_store_get_blocks_until_put(sim):
    store = Store(sim)

    def getter():
        value = yield store.get()
        return (value, sim.now)

    def putter():
        yield sim.sleep(3.0)
        store.put("late")

    proc = sim.process(getter())
    sim.process(putter())
    assert sim.run(proc) == ("late", 3.0)


def test_store_fifo_items_and_getters(sim):
    store = Store(sim)
    results = []

    def getter(tag):
        value = yield store.get()
        results.append((tag, value))

    sim.process(getter("g1"))
    sim.process(getter("g2"))

    def putter():
        yield sim.sleep(1.0)
        store.put("first")
        store.put("second")

    sim.process(putter())
    sim.run()
    assert results == [("g1", "first"), ("g2", "second")]
