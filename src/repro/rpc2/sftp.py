"""SFTP: the windowed bulk-transfer engine.

SFTP ships file contents as a side effect of RPC2 calls.  The sender
streams windows of data packets; the receiver returns selective
acknowledgements, so a single lost packet costs one retransmission
rather than a window (the behaviour that lets SFTP beat TCP on lossy
wireless links in Figure 1).  Retransmission timeouts adapt to the
RTT/bandwidth estimates shared with RPC2 (section 4.1).
"""

import math

from repro.rpc2.errors import TransferAborted
from repro.rpc2.packets import SftpAck, SftpData, SFTP_DATA_SIZE
from repro.sim.resources import Store

#: Packets in flight per burst.
WINDOW = 16
#: Receiver acks after this many new packets (twice per full burst).
ACK_EVERY = 8
#: Sender gives up after this many consecutive timeouts...
MAX_RETRIES = 8
#: ...or after this much silence, whichever comes first.  Failure
#: detection must not scale with transfer size: a dead modem link is
#: declared dead in ~2 minutes regardless of how big the file was.
DEAD_INTERVAL = 120.0
#: A round whose deadline exceeds this resends its lowest outstanding
#: packet this often.  Round deadlines scale with the (possibly badly
#: underestimated) link bandwidth and the retry backoff, so a round can
#: legitimately outlast the receiver's data-idle limit; the probe keeps
#: data flowing under that limit, and — because receivers acknowledge
#: duplicates and holes promptly — solicits an ack that reveals a lost
#: burst *tail*, which selective repair alone can never recover (it
#: only refills holes below the highest sequence the receiver has seen).
KEEPALIVE = 45.0


def packet_count(size):
    """Number of data packets needed for ``size`` bytes (min 1)."""
    return max(1, math.ceil(size / SFTP_DATA_SIZE))


class SftpSender:
    """Transmits ``size`` bytes to a peer as transfer ``transfer_id``.

    ``run()`` is a simulation process body; it completes when the
    receiver acknowledges the full transfer and raises
    :class:`TransferAborted` when retries are exhausted.
    """

    def __init__(self, sim, endpoint, peer, transfer_id, size):
        self.sim = sim
        self.endpoint = endpoint
        self.peer = peer
        self.estimator = endpoint.estimator(peer)
        self.transfer_id = transfer_id
        self.size = size
        self.inbox = Store(sim)
        self.total = packet_count(size)
        self.bytes_acked = 0

    def _packet_size(self, seq):
        if seq < self.total - 1:
            return SFTP_DATA_SIZE
        return self.size - SFTP_DATA_SIZE * (self.total - 1) or SFTP_DATA_SIZE

    def _burst_timeout(self, nbytes):
        estimator = self.estimator
        expected = estimator.expected_transfer_time(
            nbytes, default_bps=self.endpoint.default_bps)
        return 2.0 * expected + estimator.rtt.rto

    def _send_data(self, seq, sent):
        """Queue data packet ``seq``; returns its payload size.

        ``sent`` is the set of sequence numbers already transmitted at
        least once — a membership hit means this send is a
        retransmission, which the observability layer counts.
        """
        data_size = self._packet_size(seq)
        obs = self.sim.obs
        if obs.enabled and seq in sent:
            obs.metrics.counter("sftp.retransmits",
                                node=self.endpoint.node).inc()
            obs.event("retransmit", node=self.endpoint.node,
                      peer=self.peer, layer="sftp", seq=seq,
                      transfer=str(self.transfer_id))
        sent.add(seq)
        self.endpoint._send(self.peer, SftpData(
            transfer_id=self.transfer_id, seq=seq, total=self.total,
            data_size=data_size, ts=self.sim.now))
        return data_size

    def run(self):
        start = self.sim.now
        unacked = set(range(self.total))
        sent = set()
        retries = 0
        backoff = 1.0
        last_progress = self.sim.now
        pending_ack = self.inbox.get()
        while True:
            # One round: send a burst, then wait until the whole burst
            # is acknowledged or the round times out.  Duplicate and
            # partial acks merely update state — they never trigger an
            # early resend, so a lossy link cannot amplify traffic.
            burst = sorted(unacked)[:WINDOW] if unacked \
                else [self.total - 1]   # probe to solicit the final ack
            burst_set = set(burst)
            burst_bytes = 0
            round_start = self.sim.now
            for seq in burst:
                burst_bytes += self._send_data(seq, sent)
            round_length = self._burst_timeout(
                max(burst_bytes, SFTP_DATA_SIZE)) * backoff
            deadline = self.sim.sleep(round_length)
            keepalive = self.sim.sleep(KEEPALIVE) \
                if round_length > KEEPALIVE else None
            progressed = False
            while True:
                waiting = [pending_ack, deadline]
                if keepalive is not None:
                    waiting.append(keepalive)
                yield self.sim.any_of(waiting)
                if pending_ack.triggered:
                    ack = pending_ack.value
                    pending_ack = self.inbox.get()
                    if ack.ts_echo is not None:
                        ts, hold = ack.ts_echo
                        self.estimator.rtt.observe(
                            self.sim.now - ts - hold)
                    if ack.complete:
                        elapsed = self.sim.now - start
                        self.estimator.observe_transfer(self.size, elapsed)
                        return elapsed
                    newly_acked = unacked & ack.received
                    if newly_acked:
                        progressed = True
                        unacked -= newly_acked
                        # Mid-transfer bandwidth sample: this is what
                        # keeps round deadlines tracking the link, so a
                        # lost ack costs a short stall, not a guess
                        # based on stale estimates (section 4.1).
                        acked_bytes = sum(self._packet_size(seq)
                                          for seq in newly_acked)
                        self.estimator.observe_transfer(
                            acked_bytes, self.sim.now - round_start)
                        # Selective repair: a hole below the highest
                        # sequence the receiver reports is provably
                        # lost (the link is FIFO); packets above it may
                        # simply still be in flight.  Bounded — each
                        # repair needs an ack that carried new
                        # information.
                        horizon = max(ack.received) if ack.received else -1
                        missing = {seq for seq in burst_set & unacked
                                   if seq < horizon}
                        if missing:
                            for seq in sorted(missing):
                                self._send_data(seq, sent)
                    if not (burst_set & unacked):
                        break   # burst fully delivered: next round
                    continue    # partial/duplicate ack: keep waiting
                if keepalive is not None and keepalive.triggered \
                        and not deadline.triggered:
                    probe = min(unacked) if unacked else self.total - 1
                    self._send_data(probe, sent)
                    keepalive = self.sim.sleep(KEEPALIVE)
                    continue
                break           # round timed out
            if progressed:
                retries = 0
                backoff = 1.0
                last_progress = self.sim.now
            else:
                retries += 1
                backoff = min(backoff * 2.0, 8.0)
                silent = self.sim.now - last_progress
                if retries > MAX_RETRIES or silent > DEAD_INTERVAL:
                    raise TransferAborted(
                        "sftp send %r to %s stalled" %
                        (self.transfer_id, self.peer))


class SftpReceiver:
    """Collects a transfer's data packets and acknowledges them.

    The endpoint routes arriving :class:`SftpData` packets here via
    :meth:`on_data`; ``done`` is an event that fires with the received
    byte count once the transfer completes, or fails with
    :class:`TransferAborted` if the sender goes silent.
    """

    #: Seconds of silence after which an in-progress receive is abandoned.
    IDLE_LIMIT = 120.0

    def __init__(self, sim, endpoint, peer, transfer_id):
        self.sim = sim
        self.endpoint = endpoint
        self.peer = peer
        self.transfer_id = transfer_id
        self.received = set()
        self.total = None
        self.bytes_received = 0
        self.done = sim.event()
        self._aborted = False
        self._new_since_ack = 0
        self._last_data_at = sim.now
        self._last_ts = None
        self._gap_ewma = 0.05
        self._watchdog = sim.process(self._watch(), name="sftp-recv-watchdog",
                                     owner=endpoint.node)
        self._flusher = sim.process(self._flush_loop(),
                                    name="sftp-recv-flush",
                                    owner=endpoint.node)

    @property
    def complete(self):
        return self.total is not None and len(self.received) >= self.total

    def on_data(self, packet):
        """Handle one arriving data packet (called by the endpoint)."""
        if self._aborted:
            # The owning call already gave up on this transfer.  Going
            # silent (rather than acking data nobody will consume) is
            # what lets the sender's own failure detection fire.
            return
        gap = self.sim.now - self._last_data_at
        if 0 < gap < 60.0:
            self._gap_ewma += 0.3 * (gap - self._gap_ewma)
        self._last_data_at = self.sim.now
        self._last_ts = (packet.ts, self.sim.now)
        self.total = packet.total
        duplicate = packet.seq in self.received
        if not duplicate:
            self.received.add(packet.seq)
            self.bytes_received += packet.data_size
            self._new_since_ack += 1
        if self.complete:
            self._ack(complete=True)
            if not self.done.triggered:
                self.done.succeed(self.bytes_received)
            return
        # Ack on: a full window of new data, the transfer's last packet
        # (burst boundary), or a duplicate (the sender is probing).
        if (self._new_since_ack >= ACK_EVERY or duplicate
                or packet.seq == packet.total - 1):
            self._ack()

    def _ack(self, complete=False):
        ts_echo = None
        if self._last_ts is not None:
            ts, heard_at = self._last_ts
            ts_echo = (ts, self.sim.now - heard_at)
        self._new_since_ack = 0
        self.endpoint._send(self.peer, SftpAck(
            transfer_id=self.transfer_id,
            received=frozenset(self.received),
            complete=complete, ts=self.sim.now, ts_echo=ts_echo))

    def _flush_loop(self):
        """Ack a stalled transfer from the receiving side.

        Two cases: a lost packet inside a burst leaves the receiver
        below its ack-every count with the sender waiting (flush the
        partial count); or the receiver's own ack was lost *after* it
        absorbed everything sent so far, leaving both sides silent
        (re-ack periodically while incomplete).  Receiver-driven
        recovery turns a lost ack into a few seconds' hiccup instead
        of a full sender timeout.
        """
        while not self.done.triggered:
            delay = max(4.0 * self._gap_ewma, 0.01)
            yield self.sim.sleep(delay)
            if self.done.triggered:
                return
            idle = self.sim.now - self._last_data_at
            if self._new_since_ack and idle >= delay:
                self._ack()
            elif (not self.complete and self.total is not None
                  and idle >= max(10.0 * self._gap_ewma, 2.0)):
                self._ack()

    def _watch(self):
        """Abort the receive if the sender goes silent; re-ack stragglers."""
        while not self.done.triggered:
            yield self.sim.sleep(self.IDLE_LIMIT / 4.0)
            if self.done.triggered:
                return
            idle = self.sim.now - self._last_data_at
            if idle >= self.IDLE_LIMIT:
                self._aborted = True
                self.done.fail(TransferAborted(
                    "sftp receive %r from %s stalled" %
                    (self.transfer_id, self.peer)))
                # Pre-defuse: an abandoned fetch may have no waiter left.
                self.done.defuse()
                return
