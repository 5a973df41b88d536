"""The process-based TCP baseline, kept as an oracle for the callback
chains in ``repro.rpc2.tcp``.

Here a transfer is four processes: ``tcp-transfer`` waits on
``tcp-send`` and ``tcp-recv``, and the sender's ``tcp-ack-pump`` drains
its socket's inbox into a ``Store`` the sender reads between window
fills, each wait an ``AnyOf`` of the next ack and an RTO ``Timeout``
(5.05–5.13 dispatches per packet over WaveLAN at 1 % loss, where the
callback chains take 3.14–3.22).  The model itself (slow start, AIMD,
cumulative acks, fast retransmit, go-back-N on timeout, Karn's rule)
is the one ``repro.rpc2.tcp`` implements.

``tests/rpc2/test_tcp_differential.py`` holds the callback chains to this
module packet for packet, stall for stall;
``tests/net/test_packet_gate.py`` plants it as the mutant its TCP
dispatch budget must catch.
"""

from repro.rpc2.rtt import RttEstimator
from repro.rpc2.tcp import INITIAL_SSTHRESH, MSS, TCP_HEADER
from repro.sim.events import Timeout
from repro.sim.resources import Store
from tests.conftest import queued_socket


def _bind(network, node, port):
    """A socket whose arrivals queue for ``socket.recv()``, as every
    socket's did in the retired design."""
    socket, inbox = queued_socket(network, node, port)
    socket.recv = inbox.get
    return socket


class TcpReceiver:
    """Receives segments, delivers cumulative acks (delayed-ack policy)."""

    def __init__(self, sim, socket, peer, peer_port, host, total_segments):
        self.sim = sim
        self.socket = socket
        self.peer = peer
        self.peer_port = peer_port
        self.host = host
        self.total = total_segments
        self.received = set()
        self.next_expected = 0
        self.finished = sim.event()
        self._unacked_count = 0

    def run(self):
        while self.next_expected < self.total:
            datagram = yield self.socket.recv()
            cost = self.host.recv_cost(datagram.size)
            if cost > 0:
                yield Timeout(self.sim, cost)
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
                yield self._send_ack()
        if not self.finished.triggered:
            self.finished.succeed(self.sim.now)

    def _send_ack(self):
        size = TCP_HEADER
        cost = self.host.send_cost(size)
        done = Timeout(self.sim, cost)
        self._unacked_count = 0
        self.socket.send(self.peer, self.peer_port,
                         {"ack": self.next_expected}, size)
        return done


class TcpSender:
    """Slow start / congestion avoidance / fast retransmit sender."""

    MAX_RTO_BACKOFFS = 8

    def __init__(self, sim, socket, peer, peer_port, host, total_segments,
                 last_segment_bytes):
        self.sim = sim
        self.socket = socket
        self.peer = peer
        self.peer_port = peer_port
        self.host = host
        self.total = total_segments
        self.last_segment_bytes = last_segment_bytes
        self.rtt = RttEstimator(initial_rto=3.0)
        self.cwnd = 1.0
        self.ssthresh = float(INITIAL_SSTHRESH)
        self.acked = 0
        self.next_seq = 0
        self.dupacks = 0
        self._send_times = {}
        self._acks = Store(sim)
        self.retransmissions = 0

    def _segment_size(self, seq):
        payload = self.last_segment_bytes if seq == self.total - 1 else MSS
        return TCP_HEADER + payload

    def _ack_pump(self):
        while self.acked < self.total:
            datagram = yield self.socket.recv()
            cost = self.host.recv_cost(datagram.size)
            if cost > 0:
                yield Timeout(self.sim, cost)
            self._acks.put(datagram.payload["ack"])

    def run(self):
        self.sim.process(self._ack_pump(), name="tcp-ack-pump")
        backoff = 0
        pending = self._acks.get()
        while self.acked < self.total:
            # Fill the congestion window.
            while (self.next_seq < self.total
                   and self.next_seq - self.acked < int(self.cwnd)):
                yield self._transmit(self.next_seq)
                self.next_seq += 1
            timeout = Timeout(self.sim, self.rtt.rto * (2 ** backoff))
            yield self.sim.any_of([pending, timeout])
            if not pending.triggered:
                # Retransmission timeout: shrink to one segment and
                # go back to the first unacked segment.
                backoff += 1
                if backoff > self.MAX_RTO_BACKOFFS:
                    raise RuntimeError("tcp transfer stalled")
                self.ssthresh = max(2.0, self.cwnd / 2.0)
                self.cwnd = 1.0
                self.next_seq = self.acked
                self._send_times.clear()
                continue
            ack = pending.value
            pending = self._acks.get()
            backoff = 0
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
                    yield self._transmit(self.acked, retransmit=True)

    def _transmit(self, seq, retransmit=False):
        size = self._segment_size(seq)
        cost = Timeout(self.sim, self.host.send_cost(size))
        if retransmit:
            self.retransmissions += 1
            # Karn's rule: never time a retransmitted segment.
            self._send_times.pop(seq, None)
        else:
            self._send_times[seq] = self.sim.now
        self.socket.send(self.peer, self.peer_port, {"seq": seq}, size)
        return cost


def process_tcp_transfer(sim, network, src, dst, nbytes, src_host,
                         dst_host, src_port=5001, dst_port=5002):
    """Run a one-shot TCP bulk transfer; process returns elapsed seconds.

    Sockets are bound fresh for each transfer, so repeated transfers in
    one simulation need distinct port pairs.
    """
    total = max(1, (nbytes + MSS - 1) // MSS)
    last = nbytes - MSS * (total - 1) or MSS
    src_sock = _bind(network, src, src_port)
    dst_sock = _bind(network, dst, dst_port)
    sender = TcpSender(sim, src_sock, dst, dst_port, src_host, total, last)
    receiver = TcpReceiver(sim, dst_sock, src, src_port, dst_host, total)

    def transfer():
        start = sim.now
        recv_proc = sim.process(receiver.run(), name="tcp-recv")
        yield sim.process(sender.run(), name="tcp-send")
        yield recv_proc
        src_sock.close()
        dst_sock.close()
        return sim.now - start

    return sim.process(transfer(), name="tcp-transfer")
