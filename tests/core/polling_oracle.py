"""The polling trickle daemon, kept as an oracle for the parked one.

``PollingTrickle._run`` is the daemon as it was before it learned to
park: a ``sleep(daemon_period)`` chain that wakes every period on
every client and checks, at each wake, whether Venus is write
disconnected and no drain holds the log.  A hoarding or emulating
client pays a dispatch per period for nothing.
``repro.core.trickle.TrickleReintegrator`` parks instead and re-arms
on the same grid.  ``tests/properties/test_trickle_park_properties.py``
holds the two to the same chunks at the same instants, and
``tests/core/test_trickle_idle_gate.py`` plants this class as the
mutant its idle gate must catch.

``planted(cls)`` is the seam both use: every ``Venus`` built inside
it, including one restored after a crash, runs ``cls`` as its daemon.
"""

import contextlib
from unittest import mock

from repro.core.trickle import TrickleReintegrator
from repro.venus import venus as venus_module
from repro.venus.states import VenusState


class PollingTrickle(TrickleReintegrator):
    """The daemon that wakes every period, whether it can act or not."""

    def _run(self):
        period = self.config.daemon_period
        while True:
            yield self.sim.sleep(period)
            venus = self.venus
            if venus.state.state is not VenusState.WRITE_DISCONNECTED:
                continue
            if self._draining:
                continue
            yield from self._pass(venus.effective_aging_window(),
                                  defer_to_foreground=True)


@contextlib.contextmanager
def planted(daemon_cls):
    """Build every ``Venus`` in this block with ``daemon_cls``."""
    with mock.patch.object(venus_module, "TrickleReintegrator", daemon_cls):
        yield
