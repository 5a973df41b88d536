"""Round-trip-time and bandwidth estimation.

The paper (section 4.1) modifies RPC2 and SFTP to "monitor network
speed by estimating round trip times using an adaptation of the
timestamp echoing technique proposed by Jacobson", and uses the
estimates to adapt retransmission parameters.  The bandwidth estimate
additionally drives higher-level adaptation: trickle-reintegration
chunk sizing (section 4.3.5) and cache-miss service-time prediction
(section 4.4.1).
"""

#: Bounds on the retransmission timeout, in seconds.
MIN_RTO = 0.3
MAX_RTO = 60.0
#: EWMA gain of the bandwidth estimate for an ordinary sample.
BANDWIDTH_GAIN = 0.4


class RttEstimator:
    """Jacobson/Karels smoothed RTT with variance-based RTO.

    ``rto``, the current retransmission timeout in seconds, is kept up
    to date by :meth:`observe`: it is read far more often (every call,
    ping and SFTP round) than it changes.
    """

    def __init__(self, initial_rto=2.0):
        self.srtt = None
        self.rttvar = None
        self.initial_rto = initial_rto
        self.samples = 0
        self.rto = initial_rto

    def observe(self, sample):
        """Fold one RTT measurement (seconds) into the estimate."""
        if sample < 0:
            return
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            delta = sample - self.srtt
            self.srtt += delta / 8.0
            self.rttvar += (abs(delta) - self.rttvar) / 4.0
        self.samples += 1
        self.rto = min(MAX_RTO, max(MIN_RTO, self.srtt + 4.0 * self.rttvar))


class BandwidthEstimator:
    """Exponentially weighted estimate of usable bytes/second.

    Samples come from completed bulk transfers and from size-differential
    probes.  A missing estimate reports ``None`` in ``bytes_per_sec``
    and ``bits_per_sec``; callers fall back to an initial guess.  Both
    are kept up to date by :meth:`observe`.
    """

    def __init__(self):
        self.bytes_per_sec = None
        self.bits_per_sec = None
        self.samples = 0

    def observe(self, nbytes, seconds):
        """Fold in one transfer observation.

        A sample wildly different from the current estimate (the
        client moved between networks whose speeds differ by orders of
        magnitude) is trusted quickly; ordinary jitter is smoothed.
        """
        if seconds <= 0 or nbytes <= 0:
            return
        sample = nbytes / seconds
        if self.bytes_per_sec is None:
            self.bytes_per_sec = sample
        else:
            gain = BANDWIDTH_GAIN
            if sample > 4 * self.bytes_per_sec \
                    or sample < self.bytes_per_sec / 4:
                gain = 0.8
            self.bytes_per_sec += gain * (sample - self.bytes_per_sec)
        self.samples += 1
        self.bits_per_sec = self.bytes_per_sec * 8.0


class NetworkEstimator:
    """Per-peer view of network quality, shared by RPC2, SFTP and Venus.

    This object *is* the paper's "export this information to Venus":
    one estimator instance per (endpoint, peer) pair is updated by every
    packet exchange and read by the cache manager when it sizes
    reintegration chunks or predicts miss service times.
    """

    def __init__(self):
        self.rtt = RttEstimator()
        self.bandwidth = BandwidthEstimator()

    def reset(self):
        """Forget everything — after a disconnection the client may
        reappear on a network four orders of magnitude slower, and
        stale estimates would poison probe timeouts and classification.
        """
        self.rtt = RttEstimator()
        self.bandwidth = BandwidthEstimator()

    def observe_transfer(self, nbytes, seconds):
        self.bandwidth.observe(nbytes, seconds)

    def expected_transfer_time(self, nbytes, default_bps=9600.0):
        """Predicted seconds to move ``nbytes``, using current estimates."""
        bps = self.bandwidth.bits_per_sec
        if bps is None:
            bps = default_bps
        latency = self.rtt.srtt or 0.0
        return nbytes * 8.0 / bps + latency
