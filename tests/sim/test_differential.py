"""The differential harness: clean equivalence, and planted-bug teeth.

Mirrors the planted-corruption style of ``tests/ckpt/test_verify.py``:
first show the harness blesses the kernel's fast loop against the
``step()`` reference, then damage the queue's ordering in two distinct
ways (``broken_queues.py``) and assert the harness names the
divergence — at event index zero, with context from both runs.
"""

from repro.sim import kernel
from tests.sim.broken_queues import BROKEN_LOOPS
from tests.sim.differential import (
    LOOPS,
    capture_dispatches,
    capture_stops,
    diff_scenario,
    main,
)

LOOPS.update(BROKEN_LOOPS)


# ---------------------------------------------------------------------------
# Synthetic scenarios sized so a dispatch-order bug surfaces immediately.


def staircase(observatory=None):
    """Independent timeouts straddling adjacent one-second slices."""
    from repro.sim import Simulator
    sim = Simulator()
    for delay in (0.6, 1.2, 2.7, 3.1, 0.2, 1.9):
        sim.sleep(delay)
    sim.run()


def twins(observatory=None):
    """Two processes born at the same instant — a pure FIFO-tie test."""
    from repro.sim import Simulator
    sim = Simulator()

    def worker():
        yield sim.sleep(0.0)

    sim.process(worker(), name="a")
    sim.process(worker(), name="b")
    sim.run()


def relay(observatory=None):
    """A run per baton pass, each stopped by an event with tied company.

    The first stop event is one of two urgent events triggered at the
    same instant; every later one shares its instant with two
    later-born timeouts and a sleeping process.  Each event-stopped
    ``run`` must break after exactly one of the tied dispatches and
    leave the others queued, in order, for the next ``run`` to find.
    """
    from repro.sim import Simulator
    sim = Simulator()
    first, second = sim.event().succeed(), sim.event().succeed()
    sim.run(until=first)

    def sleeper():
        for _ in range(6):
            yield sim.sleep(1.0)

    sim.process(sleeper(), name="sleeper")
    for lap in range(1, 6):
        baton = sim.sleep(lap - sim.now)
        sim.sleep(lap - sim.now)
        sim.sleep(lap - sim.now)
        sim.run(until=baton)
    sim.run(until=5.5)
    sim.run()


# ---------------------------------------------------------------------------
# Clean equivalence


def test_fast_and_plain_loops_agree_on_trickle():
    reports = diff_scenario("trickle")
    assert [r.tier for r in reports] == ["dispatch", "timeline"]
    for report in reports:
        assert report.loops == ("fast", "plain")
        assert report.identical, report.format()
        assert report.events_a > 0
        assert report.events_a == report.events_b
        assert "byte-identical" in report.format()


def test_fast_and_plain_loops_agree_on_faults_smoke():
    for report in diff_scenario("smoke"):
        assert report.identical, report.format()


def test_digest_mode_agrees_without_keeping_lines():
    (report,) = diff_scenario("trickle", tiers=("dispatch",),
                              digest=True)
    assert report.identical, report.format()
    assert report.events_a > 0


def test_callable_scenarios_run_under_both_loops():
    for report in diff_scenario(staircase, tiers=("dispatch",)):
        assert report.identical, report.format()
    for report in diff_scenario(twins, tiers=("dispatch",)):
        assert report.identical, report.format()


def test_dispatch_probe_leaves_each_loop_in_charge(monkeypatch):
    """The dispatch tier is not vacuous: under the probe the fast loop
    never calls ``step()`` and the plain loop calls it per event."""
    steps = []
    honest = kernel.Simulator.step

    def counted(sim):
        steps.append(sim)
        honest(sim)

    monkeypatch.setattr(kernel.Simulator, "step", counted)
    lines, count = capture_dispatches(relay, "fast")
    assert count == len(lines) > 20 and not steps
    assert capture_dispatches(relay, "plain") == (lines, count)
    assert len(steps) == count


def test_both_loops_agree_when_stopped_by_an_event():
    """The event-stopped mode: the fast loop and the plain step() loop
    stop on the same dispatch of every ``run`` and leave the same entry
    at the head of the queue."""
    for spec in ("trickle", relay):
        (report,) = diff_scenario(spec, tiers=("stops",))
        assert report.identical, report.format()
        assert report.events_a > 0


def test_stops_tier_sees_event_stopped_runs_and_their_remnants():
    lines, count = capture_stops(relay, "fast")
    assert count == 8
    assert lines[0] == "event:Event now=0.0 dispatched=1 next=0.0 0 1 Event"
    assert lines[1] == "event:Timeout now=1.0 dispatched=4 next=1.0 1 4 Timeout"
    assert lines[-2].startswith("5.5 now=5.5 ")
    assert lines[-1].startswith("None now=6.0 ") \
        and lines[-1].endswith("next=None")


# ---------------------------------------------------------------------------
# Planted bugs: the harness must catch both, at the exact first event.


def test_non_monotone_key_queue_is_caught():
    (report,) = diff_scenario(staircase, loops=("fast", "broken-key"),
                              tiers=("dispatch",))
    assert not report.identical
    assert report.first_divergence == 0
    # The 0.2 s timeout is due first; the broken key serves the
    # [1, 2) slice before the [0, 1) one.
    assert report.context_a[0].endswith("0.2 1 4 Timeout")
    assert report.context_b[0].endswith("1.2 1 1 Timeout")
    assert "DIVERGENCE at event 0" in report.format()
    # Same scenario, honest heap behind the same step() loop: blessed.
    # The bug, not the scenario, is what the harness is reacting to.
    (clean,) = diff_scenario(staircase, tiers=("dispatch",))
    assert clean.identical


def test_tie_order_violating_queue_is_caught():
    (report,) = diff_scenario(twins, loops=("fast", "broken-ties"),
                              tiers=("dispatch",))
    assert not report.identical
    assert report.first_divergence == 0
    # Process b's bootstrap (seq 1) overtakes process a's (seq 0).
    assert report.context_a[0].endswith("0.0 0 0 Event")
    assert report.context_b[0].endswith("0.0 0 1 Event")
    (clean,) = diff_scenario(twins, tiers=("dispatch",))
    assert clean.identical


def test_tie_order_violation_is_caught_at_the_first_event_stopped_run():
    """LIFO ties leave a different same-instant remnant behind the very
    first stop event."""
    (report,) = diff_scenario(relay, loops=("plain", "broken-ties"),
                              tiers=("stops",))
    assert not report.identical
    assert report.first_divergence == 0
    (clean,) = diff_scenario(relay, loops=("plain", "fast"),
                             tiers=("stops",))
    assert clean.identical


def test_broken_queue_divergence_is_caught_in_digest_mode():
    (report,) = diff_scenario(staircase, loops=("fast", "broken-key"),
                              tiers=("dispatch",), digest=True)
    assert not report.identical


# ---------------------------------------------------------------------------
# Script entry point (what the CI smoke job runs)


def test_main_reports_clean_run(capsys):
    assert main(["--scenario", "trickle", "--tier", "dispatch"]) == 0
    out = capsys.readouterr().out
    assert "byte-identical" in out


def test_main_runs_the_event_stopped_mode_over_both_loops(capsys):
    """The CLI shape of the CI loop-differential stops step."""
    code = main(["--scenario", "trickle", "--tier", "stops"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[stops]" in out and "fast vs plain" in out


def test_main_flags_broken_queue(capsys):
    code = main(["--scenario", "trickle", "--tier", "dispatch",
                 "--loop", "fast", "--loop", "broken-ties", "--json"])
    assert code == 1
    out = capsys.readouterr().out
    assert '"identical": false' in out
