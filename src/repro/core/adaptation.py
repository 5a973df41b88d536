"""Connectivity classification with hysteresis.

Venus needs a discrete notion of connection strength to pick its state
(Figure 2): STRONG puts it in hoarding, WEAK in write disconnected,
NONE in emulating.  The classification is derived from the transport's
shared bandwidth estimate; hysteresis prevents flapping between states
when the estimate hovers near the threshold.
"""

import enum

#: The bandwidth above which a connection counts as strong: 500 Kb/s
#: classifies the paper's Ethernet and WaveLan (measured goodput
#: >= 1 Mb/s on 1995 hosts) as strong and ISDN/Modem as weak.
STRONG_THRESHOLD_BPS = 500_000.0
#: An established class changes only when the estimate moves this
#: fraction past the threshold.
HYSTERESIS = 0.2


class ConnectionStrength(enum.Enum):
    STRONG = "strong"
    WEAK = "weak"
    NONE = "none"


class ConnectivityMonitor:
    """Maps (reachability, bandwidth estimate) to a strength class,
    with :data:`HYSTERESIS` around :data:`STRONG_THRESHOLD_BPS`."""

    def __init__(self):
        self._current = ConnectionStrength.NONE

    def classify(self, reachable, bandwidth_bps):
        """Update and return the strength classification.

        ``bandwidth_bps`` may be None (no estimate yet): a reachable
        peer with unknown bandwidth is conservatively treated as weak —
        the write-disconnected state is safe at any speed, and the
        estimate firms up with the first transfers.
        """
        if not reachable:
            self._current = ConnectionStrength.NONE
            return self._current
        if bandwidth_bps is None:
            if self._current is ConnectionStrength.NONE:
                self._current = ConnectionStrength.WEAK
            return self._current
        up = STRONG_THRESHOLD_BPS
        down = STRONG_THRESHOLD_BPS
        if self._current is ConnectionStrength.STRONG:
            down *= (1.0 - HYSTERESIS)
            self._current = (ConnectionStrength.STRONG
                             if bandwidth_bps >= down
                             else ConnectionStrength.WEAK)
        else:
            up *= (1.0 + HYSTERESIS) \
                if self._current is ConnectionStrength.WEAK else 1.0
            self._current = (ConnectionStrength.STRONG
                             if bandwidth_bps >= up
                             else ConnectionStrength.WEAK)
        return self._current
