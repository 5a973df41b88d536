"""The idle gate: a client that cannot trickle costs nothing.

A clock-free count.  One client runs one simulated day with only its
trickle daemon started, so every event the simulator dispatches is
the daemon's.  A hoarding or an emulating client has nothing to
reintegrate: after the first grid instant, where the daemon parks, it
must dispatch nothing at all (the polling daemon dispatched 8,640
wakes a day on each).  A write-disconnected client must still check
at every instant of its 10 s grid, bit-equal to a ``sleep(10)`` chain.
:class:`~tests.core.polling_oracle.PollingTrickle`, planted in place
of the real daemon, must fail the gate.
"""

import pytest

from repro.core.trickle import TrickleReintegrator
from repro.net import MODEM
from repro.spec.testbed import make_testbed
from repro.venus import VenusConfig, VenusState
from tests.core.polling_oracle import PollingTrickle, planted

DAY = 86_400.0
PATHS = {
    VenusState.EMULATING: (),
    VenusState.HOARDING: (VenusState.WRITE_DISCONNECTED,
                          VenusState.HOARDING),
    VenusState.WRITE_DISCONNECTED: (VenusState.WRITE_DISCONNECTED,),
}


class CheckLog:
    """Mixin: note the instant of every pass the daemon starts."""

    def _pass(self, aging_window, defer_to_foreground):
        self.checked.append(self.sim.now)
        return super()._pass(aging_window, defer_to_foreground)


def one_day(daemon_cls, state):
    """``(dispatches after the first grid instant, pass instants)``."""
    logged = type("Logged", (CheckLog, daemon_cls), {})
    with planted(logged):
        testbed = make_testbed(
            MODEM, venus_config=VenusConfig(start_daemons=False))
    sim, venus = testbed.sim, testbed.venus
    for step in PATHS[state]:
        venus.state.transition(step)
    venus.trickle.checked = []
    venus.trickle.start()
    sim.run(until=venus.config.daemon_period)
    first = sim.dispatched
    sim.run(until=DAY)
    return sim.dispatched - first, venus.trickle.checked


@pytest.mark.parametrize("state", [VenusState.HOARDING,
                                   VenusState.EMULATING])
def test_a_client_that_cannot_trickle_dispatches_no_wakes(state):
    assert one_day(TrickleReintegrator, state) == (0, [])


def test_a_write_disconnected_client_checks_every_grid_instant():
    wakes, checked = one_day(TrickleReintegrator,
                             VenusState.WRITE_DISCONNECTED)
    grid, instants = 0.0, []
    while grid + 10.0 <= DAY:
        grid += 10.0
        instants.append(grid)
    assert len(instants) == 8_640
    assert checked == instants
    assert wakes == 8_639


@pytest.mark.parametrize("state", [VenusState.HOARDING,
                                   VenusState.EMULATING])
def test_the_polling_daemon_fails_the_gate(state):
    wakes, checked = one_day(PollingTrickle, state)
    assert checked == []
    assert wakes == 8_639
