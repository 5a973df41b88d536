"""The differential harness: clean equivalence, and planted-bug teeth.

Mirrors the planted-corruption style of ``tests/ckpt/test_verify.py``:
first show the harness blesses the honest calendar queue, then damage
the scheduler in two distinct ways (``broken_queues.py``) and assert
the harness names the divergence — at event index zero, with context
from both runs.
"""

from tests.sim.broken_pools import register_broken_pools
from tests.sim.broken_queues import register_broken_kinds
from tests.sim.differential import (
    DEFAULT_POOLINGS,
    diff_scenario,
    main,
    register_plain_kind,
)

register_broken_kinds()
register_broken_pools()
register_plain_kind()

ALL_LOOPS = ("heap", "calendar", "plain")


# ---------------------------------------------------------------------------
# Synthetic scenarios sized so a dispatch-order bug surfaces immediately.


def staircase(observatory=None):
    """Independent timeouts straddling adjacent calendar slices."""
    from repro.sim import Simulator
    sim = Simulator()
    for delay in (0.6, 1.2, 2.7, 3.1, 0.2, 1.9):
        sim.timeout(delay)
    sim.run()


def twins(observatory=None):
    """Two processes born at the same instant — a pure FIFO-tie test."""
    from repro.sim import Simulator
    sim = Simulator()

    def worker():
        yield sim.timeout(0.0)

    sim.process(worker(), name="a")
    sim.process(worker(), name="b")
    sim.run()


def burst(observatory=None):
    """Three packets in flight on one link direction at once.

    1000-byte packets at 8000 bps serialize in a second each, so the
    whole burst is airborne before the first arrival: a 3-deep
    delivery-lane queue, the smallest scenario where both planted lane
    bugs (``broken_pools.py``) must change the dispatch stream.
    """
    from repro.net.link import Link
    from repro.net.packet import Datagram
    from repro.sim import Simulator
    sim = Simulator()
    link = Link(sim, "a", "b", bandwidth_bps=8000, latency=0.05)

    def sender():
        for index in range(3):
            link.send(Datagram(src="a", src_port=1, dst="b", dst_port=2,
                               payload={"index": index}, size=1000))
        yield sim.sleep(0.0)

    sim.process(sender(), name="sender")
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
        baton = sim.timeout(lap - sim.now)
        sim.timeout(lap - sim.now)
        sim.timeout(lap - sim.now)
        sim.run(until=baton)
    sim.run(until=5.5)
    sim.run()


# ---------------------------------------------------------------------------
# Clean equivalence


def test_heap_and_calendar_agree_on_trickle():
    reports = diff_scenario("obs:trickle")
    assert [r.tier for r in reports] == ["dispatch", "timeline"]
    for report in reports:
        assert report.identical, report.format()
        assert report.events_a > 0
        assert report.events_a == report.events_b
        assert "byte-identical" in report.format()


def test_heap_and_calendar_agree_on_faults_smoke():
    for report in diff_scenario("faults:smoke"):
        assert report.identical, report.format()


def test_digest_mode_agrees_without_keeping_lines():
    (report,) = diff_scenario("obs:trickle", tiers=("dispatch",),
                              digest=True)
    assert report.identical, report.format()
    assert report.events_a > 0


def test_callable_scenarios_run_under_both_kinds():
    for report in diff_scenario(staircase, tiers=("dispatch",)):
        assert report.identical, report.format()
    for report in diff_scenario(twins, tiers=("dispatch",)):
        assert report.identical, report.format()


def test_pooling_grid_agrees_on_trickle():
    """The full kind × pooling grid, both tiers, full-line compares —
    pooling must be schedule-identical down to every sequence number."""
    reports = diff_scenario("obs:trickle", poolings=DEFAULT_POOLINGS)
    # 2 kinds × 2 poolings = 4 cells → 3 comparisons per tier.
    assert len(reports) == 6
    for report in reports:
        assert report.identical, report.format()
        assert report.events_a > 0
    labels = {kind for report in reports for kind in report.kinds}
    assert labels == {"heap/off", "heap/on", "calendar/off", "calendar/on"}


def test_pooling_grid_agrees_on_burst_traffic():
    for report in diff_scenario(burst, poolings=DEFAULT_POOLINGS,
                                tiers=("dispatch",)):
        assert report.identical, report.format()


def test_all_three_loops_agree_when_stopped_by_an_event():
    """The event-stopped mode: heap fast loop, calendar fast loop and
    the plain step() loop stop on the same dispatch of every ``run``
    and leave the same entry at the head of the queue."""
    for spec in ("obs:trickle", relay):
        reports = diff_scenario(spec, kinds=ALL_LOOPS, tiers=("stops",),
                                poolings=DEFAULT_POOLINGS)
        assert len(reports) == 5          # 3 kinds × 2 poolings, minus ref
        for report in reports:
            assert report.identical, report.format()
            assert report.events_a > 0


def test_stops_tier_sees_event_stopped_runs_and_their_remnants():
    from tests.sim.differential import capture_stops
    lines, count = capture_stops(relay, "calendar")
    assert count == 8
    assert lines[0] == "event:Event now=0.0 dispatched=1 next=0.0 0 1 Event"
    assert lines[1] == "event:Timeout now=1.0 dispatched=4 next=1.0 1 4 Timeout"
    assert lines[-2].startswith("5.5 now=5.5 ")
    assert lines[-1].startswith("None now=6.0 ") \
        and lines[-1].endswith("next=None")


# ---------------------------------------------------------------------------
# Planted bugs: the harness must catch both, at the exact first event.


def test_off_by_one_bucket_queue_is_caught():
    (report,) = diff_scenario(staircase, kinds=("heap", "broken-bucket"),
                              tiers=("dispatch",))
    assert not report.identical
    assert report.first_divergence == 0
    assert report.context_a and report.context_b
    assert "DIVERGENCE at event 0" in report.format()
    # Same scenario, honest calendar: blessed.  The bug, not the
    # scenario, is what the harness is reacting to.
    (clean,) = diff_scenario(staircase, kinds=("heap", "calendar"),
                             tiers=("dispatch",))
    assert clean.identical


def test_tie_order_violating_queue_is_caught():
    (report,) = diff_scenario(twins, kinds=("heap", "broken-ties"),
                              tiers=("dispatch",))
    assert not report.identical
    assert report.first_divergence == 0
    (clean,) = diff_scenario(twins, kinds=("heap", "calendar"),
                             tiers=("dispatch",))
    assert clean.identical


def test_tie_order_violation_is_caught_at_the_first_event_stopped_run():
    """LIFO ties leave a different same-instant remnant behind the very
    first stop event."""
    (report,) = diff_scenario(relay, kinds=("plain", "broken-ties"),
                              tiers=("stops",))
    assert not report.identical
    assert report.first_divergence == 0
    (clean,) = diff_scenario(relay, kinds=("plain", "calendar"),
                             tiers=("stops",))
    assert clean.identical


def test_broken_kind_divergence_is_caught_in_digest_mode():
    (report,) = diff_scenario(staircase, kinds=("heap", "broken-bucket"),
                              tiers=("dispatch",), digest=True)
    assert not report.identical


def test_stale_wakeup_pool_is_caught():
    """Bug A: the lane re-pushes its recycled wakeup, whose _fire
    callback died in the recycle reset.  Deliveries silently stop, so
    the broken dispatch stream ends exactly where the third arrival's
    wakeup should have been — event 5."""
    (report,) = diff_scenario(burst, kinds=("calendar",),
                              poolings=("off", "broken-stale"),
                              tiers=("dispatch",))
    assert not report.identical
    assert report.first_divergence == 5
    assert report.events_a == 6 and report.events_b == 5
    assert report.kinds == ("calendar/off", "calendar/broken-stale")
    assert "DIVERGENCE at event 5" in report.format()
    # Same scenario, honest pool: blessed.  The bug, not the scenario,
    # is what the harness is reacting to.
    (clean,) = diff_scenario(burst, kinds=("calendar",),
                             poolings=("off", "on"), tiers=("dispatch",))
    assert clean.identical


def test_reordering_batch_pool_is_caught():
    """Bug B: LIFO lane pops deliver the burst tail at the head's
    instant and re-push the head's already-used (when, seq) — the
    second delivery wakeup (event 4) is the first diverging line."""
    (report,) = diff_scenario(burst, kinds=("calendar",),
                              poolings=("off", "broken-batch"),
                              tiers=("dispatch",))
    assert not report.identical
    assert report.first_divergence == 4
    assert report.events_a == report.events_b == 6
    assert report.context_a and report.context_b
    assert "DIVERGENCE at event 4" in report.format()


def test_broken_pool_divergence_is_caught_in_digest_mode():
    (report,) = diff_scenario(burst, kinds=("calendar",),
                              poolings=("off", "broken-batch"),
                              tiers=("dispatch",), digest=True)
    assert not report.identical


# ---------------------------------------------------------------------------
# Script entry point (what the CI smoke job runs)


def test_main_reports_clean_run(capsys):
    assert main(["--scenario", "obs:trickle", "--tier", "dispatch"]) == 0
    out = capsys.readouterr().out
    assert "byte-identical" in out


def test_main_runs_the_event_stopped_mode_over_all_three_loops(capsys):
    """The CLI shape of the CI queue-differential stops step."""
    code = main(["--scenario", "obs:trickle", "--tier", "stops",
                 "--queue", "heap", "--queue", "calendar",
                 "--queue", "plain"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[stops]" in out and "heap vs plain" in out


def test_main_flags_broken_kind(capsys):
    code = main(["--scenario", "obs:trickle", "--tier", "dispatch",
                 "--queue", "heap", "--queue", "broken-ties", "--json"])
    assert code == 1
    out = capsys.readouterr().out
    assert '"identical": false' in out


def test_main_sweeps_the_pooling_grid(capsys):
    """The CLI shape the CI pool-differential smoke job invokes."""
    code = main(["--scenario", "obs:trickle", "--tier", "dispatch",
                 "--queue", "calendar", "--pooling", "off",
                 "--pooling", "on"])
    assert code == 0
    out = capsys.readouterr().out
    assert "byte-identical" in out
    assert "calendar/off vs calendar/on" in out
