"""A host's CPU as a shared, serializing resource.

Packet processing and Venus's own work execute on the same machine.
Sharing one FIFO CPU between the transport's pacing loops and the
cache manager's local operations reproduces a subtle effect the paper
measures: trickle reintegration is *almost* free, but the client
spends real cycles pushing packets, so foreground activity runs
slightly slower while a transfer is in progress — the few-percent
drift visible across Figure 12's columns.
"""

from repro.sim.events import Timeout
from repro.sim.resources import Lock


class HostCpu:
    """FIFO-serialized CPU time for one host."""

    def __init__(self, sim, host):
        self.sim = sim
        self.host = host
        self._lock = Lock(sim)
        self.busy_seconds = 0.0

    def use(self, seconds):
        """Generator: hold the CPU for ``seconds``."""
        if seconds <= 0:
            return
        yield self._lock.acquire()
        try:
            self.busy_seconds += seconds
            # Timeout directly, not through sim.sleep: one call fewer
            # on every foreground operation's path.
            yield Timeout(self.sim, seconds)
        finally:
            self._lock.release()
