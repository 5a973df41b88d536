"""Property-based tests on the simulation kernel's scheduling contract.

Four invariants the fast-path optimizations must never bend:

* same-timestamp events dispatch in priority-then-FIFO order — the
  total order that makes identical inputs produce identical schedules;
* ``kill_owned`` leaves no trace of the owner: no live processes, no
  owner table entry, and the simulation still drains cleanly;
* ``peek`` always names the exact time the next ``step`` advances to;
* a program of sleeps, lock hand-offs, spawns and interrupts logs the
  same thing whether ``run`` takes its inlined loop or ``step()``.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Interrupt, Simulator
from repro.sim.events import NORMAL, URGENT
from repro.sim.resources import Lock
from tests.sim.differential import PlainHeapQueue


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.5]),
                          st.sampled_from([URGENT, NORMAL])),
                min_size=1, max_size=30))
def test_same_timestamp_events_run_priority_then_fifo(schedule):
    """At one timestamp, URGENT beats NORMAL; ties keep insert order."""
    sim = Simulator()
    dispatched = []
    for index, (delay, priority) in enumerate(schedule):
        event = sim.event()
        event.callbacks.append(
            lambda _evt, rec=(delay, priority, index):
                dispatched.append(rec))
        sim._schedule_event(event, priority, delay)
    sim.run()
    # The kernel's contract: (time, priority, insertion order).
    expected = sorted(
        ((delay, priority, index)
         for index, (delay, priority) in enumerate(schedule)),
        key=lambda rec: (rec[0], rec[1], rec[2]))
    assert dispatched == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=11),
       st.floats(min_value=0.5, max_value=100.0))
def test_kill_owned_never_leaks_callbacks(procs, kill_at, horizon):
    """After kill_owned, the owner's processes never run again."""
    sim = Simulator()
    ran_after_kill = []
    killed_flag = []

    def worker(ident):
        while True:
            yield sim.sleep(1.0)
            if killed_flag:
                ran_after_kill.append(ident)

    for ident in range(procs):
        sim.process(worker(ident), owner="victim")
    kill_time = min(kill_at, procs) + 0.5

    def killer():
        yield sim.sleep(kill_time)
        sim.kill_owned("victim")
        killed_flag.append(True)

    sim.process(killer())
    sim.run(until=kill_time + horizon)
    # No owned process survived the kill...
    assert ran_after_kill == []
    assert "victim" not in sim._owned
    # ...and nothing of theirs is still scheduled: the queue drains.
    sim.run()
    assert sim.peek_entry() is None


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_peek_and_step_agree(delays):
    """peek_entry() names exactly the time step() will advance to."""
    sim = Simulator()
    for delay in delays:
        sim.sleep(delay)
    seen = []
    while True:
        upcoming = sim.peek_entry()
        if upcoming is None:
            break
        sim.step()
        assert sim.now == upcoming[0]
        seen.append(upcoming)
    assert seen == sorted(seen)
    assert len(seen) == len(delays)
    assert sim.dispatched == len(delays)


# Delays drawn as multiples of 1/64 s: exact binary floats, so the
# interesting case — many events tied at one instant, where only the
# sequence number breaks the tie — comes up constantly instead of
# almost never.
ticks = st.integers(min_value=0, max_value=64).map(lambda n: n / 64.0)

programs = st.lists(
    st.tuples(st.sampled_from(["sleep", "lock", "spawn", "interrupt"]),
              ticks),
    min_size=1, max_size=12)


def run_program(script, queue):
    """Run one generated program; return its observable log."""
    sim = Simulator(queue=queue)
    log = []
    lock = Lock(sim)

    def napper(idx):
        try:
            yield sim.sleep(1000.0)
            log.append((sim.now, "overslept", idx))
        except Interrupt as exc:
            log.append((sim.now, "interrupted", idx, exc.args[0] if exc.args else None))

    def worker(idx, kind, delay):
        if kind == "sleep":
            yield sim.sleep(delay)
            log.append((sim.now, "slept", idx))
        elif kind == "lock":
            yield sim.sleep(delay)
            yield lock.acquire()
            log.append((sim.now, "locked", idx))
            yield sim.sleep(0.25)
            log.append((sim.now, "unlocking", idx))
            lock.release()
        elif kind == "spawn":
            yield sim.sleep(delay)
            child = sim.process(worker(idx + 1000, "sleep", delay / 2),
                                name="child-%d" % idx)
            value = yield child
            log.append((sim.now, "joined", idx, value))
        elif kind == "interrupt":
            victim = sim.process(napper(idx + 2000), name="napper-%d" % idx)
            yield sim.sleep(delay)
            victim.interrupt(cause=idx)
            log.append((sim.now, "kicked", idx))

    for idx, (kind, delay) in enumerate(script):
        sim.process(worker(idx, kind, delay), name="w%d" % idx)
    sim.run()
    log.append((sim.now, sim.dispatched, "end"))
    return log


@settings(max_examples=60)
@given(programs)
def test_random_programs_log_identically_on_both_loops(script):
    """Sleep/lock/spawn/interrupt programs: fast loop ≡ ``step()``."""
    assert run_program(script, None) == run_program(script,
                                                    PlainHeapQueue())
