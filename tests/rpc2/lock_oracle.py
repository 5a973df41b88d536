"""The lock-held host CPU and the process-loop RPC2 endpoint, kept as
an oracle for the clock CPU and the endpoint's callback chains.

Here ``LockCpu.use`` holds a FIFO :class:`~repro.sim.resources.Lock`
across a ``Timeout``, and the endpoint runs two pacing processes, one
draining a ``Store`` outbox and one the socket's inbox: seven events
per packet, two per local operation.  ``repro.net.cpu.HostCpu`` and
``repro.rpc2.endpoint`` reach the same instants with three and one.

The oracle also keeps the process-per-ping design: ``ping`` starts a
process that sends the Ping, then waits on an ``AnyOf`` of its Pong
waiter and an expiry ``Timeout`` (eleven dispatches a ping, where the
callback chain takes eight); a generator handler runs as a child
process of the call it serves, and a finished transfer's grace period
is a sleeping process.

``tests/properties/test_cpu_clock_properties.py`` holds the endpoint
to this module instant for instant; ``tests/net/test_packet_gate.py``
plants it, and ``tests/net/test_ping_gate.py`` plants
:class:`ProcessPings` alone, as the mutants their dispatch gates must
catch.
"""

from repro.rpc2 import ConnectionDead, Rpc2Endpoint
from repro.rpc2.endpoint import TRANSFER_GRACE
from repro.rpc2.packets import Ping, Pong
from repro.sim.events import Timeout
from repro.sim.resources import Lock, Store


class LockCpu:
    """FIFO-serialized CPU time for one host, held as a lock."""

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
            yield Timeout(self.sim, seconds)
        finally:
            self._lock.release()


class ProcessPings:
    """Endpoint mixin: the retired process-per-ping design.  A ping is
    a process owned by the node, so a crash kills it."""

    def shutdown(self):
        if not self.socket.closed:
            self.socket.close()
        return self.sim.kill_owned(self.node)

    def _dispatch(self, peer, packet):
        if not isinstance(packet, Pong):
            return super()._dispatch(peer, packet)
        self._observe_echo(peer, packet)
        waiter = self._ping_waiters.pop(packet.seq, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(packet)

    def ping(self, peer, pad=0):
        return self.sim.process(self._ping(peer, pad),
                                name="ping-%s" % peer, owner=self.node)

    def _ping(self, peer, pad):
        estimator = self.estimator(peer)
        if pad:
            timeout = pad * 10.0 / 1200.0 * 1.5 + estimator.rtt.rto + 1.0
        else:
            timeout = max(estimator.rtt.rto,
                          estimator.expected_transfer_time(
                              pad, default_bps=self.default_bps)
                          * 2 + 1.0)
        seq = next(self._ping_seq)
        waiter = self.sim.event()
        self._ping_waiters[seq] = waiter
        started = self.sim.now
        self._send(peer, Ping(conn=0, seq=seq, ts=started, pad=pad))
        expiry = self.sim.sleep(timeout)
        yield self.sim.any_of([waiter, expiry])
        if not waiter.triggered:
            self._ping_waiters.pop(seq, None)
            raise ConnectionDead("ping to %s timed out" % peer)
        rtt = self.sim.now - started
        if pad:
            estimator.observe_transfer(pad, rtt)
        return rtt


class ChildHandlers:
    """Endpoint mixin: a generator handler runs as a child process of
    the call it serves, and a transfer's grace period is a process."""

    def register(self, procedure, handler):
        def in_a_child(ctx, args):
            outcome = handler(ctx, args)
            if hasattr(outcome, "__next__"):
                return self._child(outcome, procedure)
            return outcome
        super().register(procedure, in_a_child)

    def _child(self, outcome, procedure):
        return (yield self.sim.process(outcome, name="handler-%s" % procedure,
                                       owner=self.node))

    def _expire_transfer(self, table, transfer_id, transfer):
        def expire():
            yield self.sim.sleep(TRANSFER_GRACE)
            if table.get(transfer_id) is transfer:
                del table[transfer_id]
        self.sim.process(expire(), name="sftp-expire", owner=self.node)


class LoopEndpoint(ProcessPings, ChildHandlers, Rpc2Endpoint):
    """An endpoint whose packets queue for two owned pacing loops."""

    def __init__(self, sim, network, node, port, host, **kwargs):
        super().__init__(sim, network, node, port, host, **kwargs)
        self.cpu = LockCpu(sim, host)
        # Arrivals queue in an inbox, for the receive loop.
        self._arrivals = Store(sim)
        self.socket.deliver = self._arrivals.put
        self._outbox = Store(sim)
        sim.process(self._send_loop(), name="%s-send" % node, owner=node)
        sim.process(self._recv_loop(), name="%s-recv" % node, owner=node)

    def _send(self, peer, packet):
        self._outbox.put((peer, packet))

    def _send_loop(self):
        while True:
            peer, packet = yield self._outbox.get()
            size = packet.wire_size
            yield from self.cpu.use(self.host.send_cost(size))
            self.packets_out += 1
            self.bytes_out += size
            obs = self.sim.obs
            if obs.enabled:
                counter = obs.metrics.counter
                kind = type(packet).__name__
                counter("rpc.packets_out", node=self.node, kind=kind).inc()
                counter("rpc.bytes_out", node=self.node,
                        kind=kind).inc(size)
            self.socket.send(peer, self.port, packet, size)

    def _recv_loop(self):
        while True:
            datagram = yield self._arrivals.get()
            yield from self.cpu.use(self.host.recv_cost(datagram.size))
            self.liveness.heard_from(datagram.src)
            self._dispatch(datagram.src, datagram.payload)
