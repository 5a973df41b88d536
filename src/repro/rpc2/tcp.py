"""A simplified TCP (Reno-style) bulk transfer, the Figure 1 baseline.

This models the aspects of 4.3BSD-era TCP that determine Figure 1's
outcome: slow start, AIMD congestion avoidance, *cumulative-only*
acknowledgements (no SACK), fast retransmit on three duplicate acks,
and go-back-N on retransmission timeout.  Against SFTP's selective
retransmission and sparser acks, these are precisely the behaviours
that cost TCP throughput on lossy wireless links and slow modems.

A transfer is callback chains, with no process: each end absorbs its
arrivals one at a time after a receive-cost ``Timeout`` each, and the
sender fills its window one send-cost ``Timeout`` per segment and
reads acks between fills.  Every packet leaves at the instant and in
the order the retired process design (``tests/rpc2/tcp_oracle.py``)
sent it.
"""

from collections import deque

from repro.rpc2.rtt import RttEstimator
from repro.sim.events import Event, Timeout

TCP_HEADER = 40          # TCP/IP headers
MSS = 1024               # segment payload, bytes
INITIAL_SSTHRESH = 64    # segments
SRC_PORT = 5001          # the sender's port
DST_PORT = 5002          # the receiver's port


class _RecvCpu:
    """A socket's arrivals, each absorbed after its receive cost (one
    ``Timeout``; none when free), FIFO.  ``absorb(datagram)`` calls
    :meth:`release` when the next may start; an end that does not has
    stopped reading.  :meth:`arrive` is the socket's delivery
    callback."""

    def __init__(self, sim, host, absorb):
        self.sim = sim
        self.host = host
        self.absorb = absorb
        self._backlog = deque()
        self._busy = False

    def arrive(self, datagram):
        if self._busy:
            self._backlog.append(datagram)
        else:
            self._take(datagram)

    def _take(self, datagram):
        self._busy = True
        cost = self.host.recv_cost(datagram.size)
        if cost > 0:
            Timeout(self.sim, cost, datagram).callbacks.append(self._costed)
        else:
            self.absorb(datagram)

    def _costed(self, timeout):
        self.absorb(timeout._value)

    def release(self, _event=None):
        self._busy = False
        if self._backlog:
            self._take(self._backlog.popleft())


class _Completion(Event):
    """What :func:`tcp_transfer` returns: settled once both ends are done."""

    __slots__ = ("sockets", "start", "ends")

    def __init__(self, sim):
        super().__init__(sim)
        self.sockets = []        # each end's, as it binds it
        self.start = sim.now
        self.ends = 2

    def end_done(self, _event=None):
        self.ends -= 1
        if not self.ends:
            for sock in self.sockets:
                sock.close()
            self.succeed(self.sim.now - self.start)


class _TcpReceiver:
    """Receives segments, delivers cumulative acks (delayed-ack policy)."""

    def __init__(self, sim, network, node, peer, host, total_segments,
                 completion):
        self.sim = sim
        self.peer = peer
        self.host = host
        self.total = total_segments
        self.received = set()
        self.next_expected = 0
        self._unacked_count = 0
        self._completion = completion
        self._cpu = _RecvCpu(sim, host, self._absorb)
        self.socket = network.socket(node, DST_PORT, self._cpu.arrive)
        completion.sockets.append(self.socket)

    def _absorb(self, datagram):
        seq = datagram.payload["seq"]
        out_of_order = seq != self.next_expected
        self.received.add(seq)
        while self.next_expected in self.received:
            self.next_expected += 1
        self._unacked_count += 1
        # Delayed ack: every second in-order segment; immediately on
        # out-of-order data (dupack) and on the final segment.
        if (out_of_order or self._unacked_count >= 2
                or self.next_expected >= self.total):
            self._send_ack().callbacks.append(
                self._completion.end_done
                if self.next_expected >= self.total else self._cpu.release)
        else:
            self._cpu.release()

    def _send_ack(self):
        size = TCP_HEADER
        cost = self.host.send_cost(size)
        done = Timeout(self.sim, cost)
        self._unacked_count = 0
        self.socket.send(self.peer, SRC_PORT, {"ack": self.next_expected},
                         size)
        return done


class _TcpSender:
    """Slow start / congestion avoidance / fast retransmit sender."""

    MAX_RTO_BACKOFFS = 8

    def __init__(self, sim, network, node, peer, host, total_segments,
                 last_segment_bytes, completion):
        self.sim = sim
        self.peer = peer
        self.host = host
        self.total = total_segments
        self.last_segment_bytes = last_segment_bytes
        self.rtt = RttEstimator(initial_rto=3.0)
        self.cwnd = 1.0
        self.ssthresh = float(INITIAL_SSTHRESH)
        self.acked = 0
        self.next_seq = 0
        self.dupacks = 0
        self.retransmissions = 0
        self._send_times = {}
        self._backoff = 0
        self._acks = deque()     # absorbed, not yet read
        self._rto = None         # the timer of the current wait, if any
        self._completion = completion
        self._cpu = _RecvCpu(sim, host, self._absorb)
        self.socket = network.socket(node, SRC_PORT, self._cpu.arrive)
        completion.sockets.append(self.socket)

    def _segment_size(self, seq):
        payload = self.last_segment_bytes if seq == self.total - 1 else MSS
        return TCP_HEADER + payload

    def _absorb(self, datagram):
        if self.acked >= self.total:
            return
        self._acks.append(datagram.payload["ack"])
        # The next ack's receive cost is booked before this one is read.
        self._cpu.release()
        if self._rto is not None:
            self._rto = None
            self.run()

    def run(self, _event=None):
        """Fill the window; once it is full, read an ack or wait."""
        while self.acked < self.total:
            if (self.next_seq < self.total
                    and self.next_seq - self.acked < int(self.cwnd)):
                self._transmit(self.next_seq).callbacks.append(self._sent)
                return
            if not self._acks:
                self._rto = Timeout(self.sim,
                                    self.rtt.rto * (2 ** self._backoff))
                self._rto.callbacks.append(self._expired)
                return
            if self._read_ack():
                return
        self._completion.end_done()

    def _sent(self, _cost):
        self.next_seq += 1
        self.run()

    def _read_ack(self):
        """True if a fast retransmit (which resumes :meth:`run`) left."""
        ack = self._acks.popleft()
        self._backoff = 0
        if ack > self.acked:
            sent_at = self._send_times.pop(ack - 1, None)
            if sent_at is not None:
                self.rtt.observe(self.sim.now - sent_at)
            newly = ack - self.acked
            self.acked = ack
            self.dupacks = 0
            for _ in range(newly):
                if self.cwnd < self.ssthresh:
                    self.cwnd += 1.0
                else:
                    self.cwnd += 1.0 / self.cwnd
        elif ack == self.acked and ack < self.total:
            self.dupacks += 1
            if self.dupacks == 3:
                # Fast retransmit of the missing segment.
                self.ssthresh = max(2.0, self.cwnd / 2.0)
                self.cwnd = self.ssthresh
                self.dupacks = 0
                self._transmit(self.acked, True).callbacks.append(self.run)
                return True
        return False

    def _expired(self, timer):
        if timer is self._rto:
            # A same-instant hop, as the retired AnyOf took: an ack
            # absorbed at this instant still wins.
            Event(self.sim).succeed(timer).callbacks.append(self._timed_out)

    def _timed_out(self, hop):
        if hop._value is not self._rto:
            return
        # Retransmission timeout: shrink to one segment and go back to
        # the first unacked segment.
        self._rto = None
        self._backoff += 1
        if self._backoff > self.MAX_RTO_BACKOFFS:
            self._completion.fail(RuntimeError("tcp transfer stalled"))
            return
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = 1.0
        self.next_seq = self.acked
        self._send_times.clear()
        self.run()

    def _transmit(self, seq, retransmit=False):
        size = self._segment_size(seq)
        cost = Timeout(self.sim, self.host.send_cost(size))
        if retransmit:
            self.retransmissions += 1
            # Karn's rule: never time a retransmitted segment.
            self._send_times.pop(seq, None)
        else:
            self._send_times[seq] = self.sim.now
        self.socket.send(self.peer, DST_PORT, {"seq": seq}, size)
        return cost


def tcp_transfer(sim, network, src, dst, nbytes, src_host, dst_host):
    """Start a one-shot TCP bulk transfer of ``nbytes`` from ``src`` to
    ``dst``; the first segment leaves at once.

    Returns an :class:`~repro.sim.events.Event` that succeeds with the
    elapsed seconds once the sender has read the last ack and the
    receiver has paid for sending it, or fails with ``RuntimeError("tcp
    transfer stalled")`` when the RTO expires ``MAX_RTO_BACKOFFS + 1``
    times in a row.  The sockets are bound here and closed on
    completion, so a later transfer may reuse the ports; a stalled one
    keeps them.
    """
    total = max(1, (nbytes + MSS - 1) // MSS)
    last = nbytes - MSS * (total - 1) or MSS
    completion = _Completion(sim)
    sender = _TcpSender(sim, network, src, dst, src_host, total, last,
                        completion)
    _TcpReceiver(sim, network, dst, src, dst_host, total, completion)
    sender.run()
    return completion
