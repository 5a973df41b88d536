"""Exported metrics do not depend on which dispatch loop ran.

``Simulator.step()`` updates the two kernel metrics the readable way —
``sim.events_dispatched.inc()`` and ``sim.queue_depth.set(len(queue))``
per dispatch.  The fast loop keeps the same facts in locals and lands
them once per run (``Simulator._settle_watcher``).  These tests run one
instrumented scenario through both loops (``plain`` is the same heap
behind the ``step()`` loop) and demand identical
``observatory.metrics.rows()``: value, min, max and ``last_update``.
"""

import pytest

from repro.obs import Observatory
from repro.sim import Simulator
from repro.sim.events import UnhandledFailure
from repro.sim.kernel import Simulator as KernelSimulator
from tests.sim.differential import PlainHeapQueue, diff_scenario, main

#: The reference first: the fast loop is compared against step().
REFERENCE_FIRST = ("plain", "fast")


def _assert_loops_agree(spec):
    (report,) = diff_scenario(spec, loops=REFERENCE_FIRST, tiers=("metrics",))
    assert report.identical, report.format()
    assert report.events_a > 0


def test_both_loops_export_the_same_metrics_on_trickle():
    _assert_loops_agree("trickle")


def test_both_loops_export_the_same_metrics_on_commuter(monkeypatch):
    monkeypatch.setenv("REPRO_FAST", "1")
    _assert_loops_agree("mod:repro.spec.golden:commuter_golden")


# ---------------------------------------------------------------------------
# Synthetic scenarios: every way the fast loop can be entered and left.


def relay(observatory=None):
    """Event-stopped runs with tied company, then timed and open runs.

    Each ``run`` call is one write-back; the gauge's envelope and the
    counter's stamp must accumulate across them exactly as per-dispatch
    updates would.
    """
    sim = Simulator()
    observatory.install(sim)
    first, _second = sim.event().succeed(), sim.event().succeed()
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
    sim.run(until=first)            # already processed: dispatches nothing
    sim.run(until=5.5)
    sim.run(until=5.75)             # nothing due: no dispatch, no stamp
    sim.run()
    return sim


def crash(observatory=None):
    """The loop exits through an unhandled failure, then is re-entered."""
    sim = Simulator()
    observatory.install(sim)

    def doomed():
        yield sim.sleep(2.0)
        raise KeyError("planted")

    def bystander():
        for _ in range(5):
            yield sim.sleep(0.75)

    sim.process(bystander(), name="bystander")
    sim.process(doomed(), name="doomed")
    with pytest.raises(UnhandledFailure):
        sim.run()
    assert sim.now == 2.0
    sim.run()


@pytest.mark.parametrize("scenario", [relay, crash])
def test_loops_agree_however_the_loop_is_left(scenario):
    _assert_loops_agree(scenario)


def test_relay_rows_are_what_step_would_have_left():
    """Pin the reference itself, so agreement cannot be vacuous."""
    observatory = Observatory()
    sim = relay(observatory)
    counter = observatory.metrics.find("sim.events_dispatched")
    gauge = observatory.metrics.find("sim.queue_depth")
    assert counter.value == sim.dispatched > 20
    assert counter.last_update == gauge.last_update == 6.0
    assert (gauge.value, gauge.min_value) == (0, 0)
    assert gauge.max_value >= 3


def test_a_run_that_dispatches_nothing_leaves_no_kernel_rows():
    for queue in (None, PlainHeapQueue()):
        sim = Simulator(queue=queue)
        observatory = Observatory(sim)
        sim.sleep(5.0)
        sim.run(until=1.0)
        assert observatory.metrics.find("sim.events_dispatched") is None
        assert observatory.metrics.find("sim.queue_depth") is None


def swap(observatory=None):
    """A callback hands the simulator to another observatory mid-run."""
    sim = Simulator()
    observatory.install(sim)
    successor = Observatory()
    sim.sleep(1.0).callbacks.append(lambda _evt: successor.install(sim))
    sim.sleep(2.0)
    sim.run()


def test_metrics_tier_catches_a_wrong_write_back(monkeypatch):
    """Planted bug: the write-back reads the clock instead of using
    the time of the last dispatch the observatory saw.  The fast loop
    notices the swap one dispatch later, when the clock has moved on."""
    honest = KernelSimulator._settle_watcher

    def late_stamp(sim, obs, own_clock, *facts):
        return honest(sim, obs, False, *facts)

    _assert_loops_agree(swap)
    monkeypatch.setattr(KernelSimulator, "_settle_watcher", late_stamp)
    (report,) = diff_scenario(swap, loops=REFERENCE_FIRST, tiers=("metrics",))
    assert not report.identical
    assert '"last_update": 1.0' in report.context_a[0]
    assert '"last_update": 2.0' in report.context_b[0]


def test_cli_runs_the_metrics_tier(capsys):
    code = main(["--scenario", "trickle", "--tier", "metrics",
                 "--loop", "plain", "--loop", "fast"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[metrics]") == 1 and "byte-identical" in out
