"""A host's CPU as a shared, serializing resource.

Packet processing and Venus's own work execute on the same machine.
Sharing one FIFO CPU between the transport's send and receive paths
and the cache manager's local operations reproduces a subtle effect
the paper measures: trickle reintegration is *almost* free, but the
client spends real cycles pushing packets, so foreground activity runs
slightly slower while a transfer is in progress — the few-percent
drift visible across Figure 12's columns.

The FIFO is a clock, not a lock: uses are served in the order they are
booked, so the CPU is fully described by the instant its last booking
finishes.  A booking starts at ``max(now, busy_until)`` and costs one
event, at its finish instant — the same float a lock granted at
``start`` followed by a ``cost``-second timeout would fire at.
"""

from repro.sim.events import At


class HostCpu:
    """FIFO-serialized CPU time for one host."""

    def __init__(self, sim, host):
        self.sim = sim
        self.host = host
        #: The instant the last booked use finishes.
        self.busy_until = sim.now
        self.busy_seconds = 0.0

    def reserve(self, seconds):
        """Book ``seconds`` after every earlier booking; returns the
        instant the booking finishes."""
        now = self.sim.now
        start = self.busy_until
        if start < now:
            start = now
        finish = self.busy_until = start + seconds
        self.busy_seconds += seconds
        return finish

    def use(self, seconds):
        """Generator: hold the CPU for ``seconds``."""
        if seconds <= 0:
            return
        yield At(self.sim, self.reserve(seconds))
