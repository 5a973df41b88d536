"""FaultInjector execution: determinism, zero perturbation, reverts."""

import pytest

from repro.faults import (
    ClientCrash,
    ClientRestart,
    FaultInjector,
    FaultPlan,
    LinkDegrade,
    LinkOutage,
    LossBurst,
    fault_fingerprint,
)
from repro.net import MODEM
from repro.spec.catalog import get
from repro.spec.compile import run_spec
from repro.spec.testbed import make_testbed, probe_schedule


def _idle_run(testbed, until=200.0):
    sim = testbed.sim

    def session():
        yield sim.sleep(until)

    sim.run(sim.process(session()))


class TestZeroPerturbation:
    """An empty plan must be indistinguishable from no injector."""

    @staticmethod
    def _run(with_injector):
        schedule = []
        testbed = make_testbed(MODEM, seed=7)
        probe_schedule(testbed.sim, schedule)
        if with_injector:
            injector = FaultInjector(testbed, FaultPlan([]))
            assert injector.start() is None
            assert injector.log == []
        _idle_run(testbed)
        return schedule

    def test_empty_plan_is_schedule_identical(self):
        bare = self._run(with_injector=False)
        armed = self._run(with_injector=True)
        assert len(bare) > 10
        assert bare == armed

    def test_empty_plan_draws_no_randomness(self):
        testbed = make_testbed(MODEM, seed=7)
        before = testbed.sim.rand.state()
        FaultInjector(testbed, FaultPlan([])).start()
        assert testbed.sim.rand.state() == before


class TestDeterminism:

    @pytest.mark.parametrize("name",
                             ["client-crash", "server-crash", "smoke"])
    def test_same_seed_same_schedule_and_fingerprint(self, name):
        first_schedule, second_schedule = [], []
        first = run_spec(get(name), schedule_log=first_schedule).testbed
        second = run_spec(get(name), schedule_log=second_schedule).testbed
        assert len(first_schedule) > 500
        assert first_schedule == second_schedule
        assert fault_fingerprint(first) == fault_fingerprint(second)
        # The injected timeline itself is reproduced exactly.
        assert first.faults.log == second.faults.log
        assert len(first.faults.log) == len(first.faults.plan) + sum(
            1 for a in first.faults.plan if hasattr(a, "duration"))


class TestWindowedReverts:

    def test_outage_window_restores_link(self):
        testbed = make_testbed(MODEM, seed=0)
        FaultInjector(testbed, FaultPlan(
            [LinkOutage(at=50.0, duration=30.0)])).start()
        seen = []
        sim = testbed.sim

        def watch():
            yield sim.sleep(60.0)
            seen.append(testbed.link.forward.up)
            yield sim.sleep(40.0)
            seen.append(testbed.link.forward.up)

        sim.run(sim.process(watch()))
        assert seen == [False, True]

    def test_degrade_window_restores_bandwidth_and_loss(self):
        testbed = make_testbed(MODEM, seed=0)
        original_down = testbed.link.forward.bandwidth_bps
        original_up = testbed.link.backward.bandwidth_bps
        original_loss = testbed.link.forward.loss_rate
        FaultInjector(testbed, FaultPlan([LinkDegrade(
            at=20.0, duration=30.0, bandwidth_bps=2_400.0,
            loss_rate=0.2)])).start()
        sim = testbed.sim
        mid = {}

        def watch():
            yield sim.sleep(30.0)
            mid["bps"] = testbed.link.forward.bandwidth_bps
            mid["loss"] = testbed.link.forward.loss_rate

        sim.run(sim.process(watch()))
        _idle_run(testbed, until=40.0)
        assert mid == {"bps": 2_400.0, "loss": 0.2}
        assert testbed.link.forward.bandwidth_bps == original_down
        assert testbed.link.backward.bandwidth_bps == original_up
        assert testbed.link.forward.loss_rate == original_loss

    def test_degrade_revert_restores_both_directions(self):
        """A degrade changes both directions, and its revert puts both
        back to the bandwidth and loss rate they had before the fault,
        not to the profile's."""
        testbed = make_testbed(MODEM, seed=0)
        link = testbed.link
        link.set_bandwidth(4_800.0)
        link.set_loss_rate(0.05)
        FaultInjector(testbed, FaultPlan([LinkDegrade(
            at=20.0, duration=30.0, bandwidth_bps=2_400.0,
            loss_rate=0.2)])).start()
        sim = testbed.sim
        directions = (link.forward, link.backward)
        mid = []

        def watch():
            yield sim.sleep(30.0)
            mid.extend((d.bandwidth_bps, d.loss_rate) for d in directions)

        sim.run(sim.process(watch()))
        _idle_run(testbed, until=40.0)
        assert mid == [(2_400.0, 0.2)] * 2
        assert [(d.bandwidth_bps, d.loss_rate) for d in directions] \
            == [(4_800.0, 0.05)] * 2

    def test_loss_burst_reverts(self):
        testbed = make_testbed(MODEM, seed=0)
        original = testbed.link.forward.loss_rate
        FaultInjector(testbed, FaultPlan(
            [LossBurst(at=10.0, duration=20.0, loss_rate=0.5)])).start()
        _idle_run(testbed, until=50.0)
        assert testbed.link.forward.loss_rate == original

    def test_restart_without_crash_refused(self):
        testbed = make_testbed(MODEM, seed=0)
        injector = FaultInjector(testbed, FaultPlan([
            ClientCrash(at=10.0), ClientRestart(at=20.0)]))
        # Bypass the plan check to hit the injector's own guard.
        with pytest.raises(RuntimeError):
            injector._client_restart(ClientRestart(at=20.0))
