"""Event lifecycle, conditions, and interrupts."""

import pytest

from repro.sim import At, Interrupt
from repro.sim.events import Timeout


def test_event_succeed_delivers_value(sim):
    event = sim.event()

    def trigger():
        yield sim.sleep(1.0)
        event.succeed("payload")

    def waiter():
        value = yield event
        return value

    sim.process(trigger())
    assert sim.run(sim.process(waiter())) == "payload"


def test_event_fail_throws_into_waiter(sim):
    event = sim.event()

    def trigger():
        yield sim.sleep(1.0)
        event.fail(KeyError("nope"))

    def waiter():
        try:
            yield event
        except KeyError:
            return "caught"

    sim.process(trigger())
    assert sim.run(sim.process(waiter())) == "caught"


def test_double_trigger_rejected(sim):
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_fail_requires_exception(sim):
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_late_subscriber_still_notified(sim):
    event = sim.event()
    event.succeed("early")
    sim.run()
    assert event._processed
    seen = []
    event.subscribe(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["early"]


def test_any_of_fires_on_first(sim):
    def waiter():
        first = Timeout(sim, 1.0, "fast")
        second = Timeout(sim, 5.0, "slow")
        results = yield sim.any_of([first, second])
        return list(results.values())

    assert sim.run(sim.process(waiter())) == ["fast"]
    assert sim.now == 1.0


def test_empty_conditions_fire_immediately(sim):
    def waiter():
        yield sim.any_of([])
        return sim.now

    assert sim.run(sim.process(waiter())) == 0.0


def test_at_fires_at_the_exact_instant_given(sim):
    """``now + (when - now)`` is not ``when`` for these two floats; an
    ``At`` fires at ``when`` itself and carries its value."""
    now, when = 0.303598551834547, 90.0686292274148
    assert now + (when - now) != when
    fired = []

    def waiter():
        yield sim.sleep(now)
        value = yield At(sim, when, "v")
        fired.append((sim.now, value))

    sim.run(sim.process(waiter()))
    assert fired == [(when, "v")]
    with pytest.raises(ValueError):
        At(sim, when - 1.0)


def test_interrupt_wakes_sleeping_process(sim):
    def sleeper():
        try:
            yield sim.sleep(100.0)
            return "overslept"
        except Interrupt as interrupt:
            return ("interrupted", interrupt.args[0], sim.now)

    proc = sim.process(sleeper())

    def interrupter():
        yield sim.sleep(2.0)
        proc.interrupt("wake up")

    sim.process(interrupter())
    assert sim.run(proc) == ("interrupted", "wake up", 2.0)


def test_interrupt_finished_process_is_noop(sim):
    def quick():
        yield sim.sleep(1.0)

    proc = sim.process(quick())
    sim.run()
    proc.interrupt("too late")
    sim.run()
    assert proc._ok is True


def test_interrupted_event_keeps_running(sim):
    """The event a process was waiting on is unaffected by interrupt."""
    shared = Timeout(sim, 5.0, "fired")

    def victim():
        try:
            yield shared
        except Interrupt:
            return "out"

    def bystander():
        value = yield shared
        return value

    proc = sim.process(victim())

    def interrupter():
        yield sim.sleep(1.0)
        proc.interrupt()

    sim.process(interrupter())
    other = sim.process(bystander())
    assert sim.run(other) == "fired"
    assert proc.value == "out"


def test_process_is_alive_tracking(sim):
    def proc():
        yield sim.sleep(3.0)

    process = sim.process(proc())
    assert process.is_alive
    sim.run()
    assert not process.is_alive
