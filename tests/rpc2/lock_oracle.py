"""The lock-held host CPU and the process-loop RPC2 endpoint, kept as
an oracle for the clock CPU and the endpoint's callback chains.

Here ``LockCpu.use`` holds a FIFO :class:`~repro.sim.resources.Lock`
across a ``Timeout``, and the endpoint runs two pacing processes, one
draining a ``Store`` outbox and one the socket's inbox: seven events
per packet, two per local operation.  ``repro.net.cpu.HostCpu`` and
``repro.rpc2.endpoint`` reach the same instants with three and one.
``tests/properties/test_cpu_clock_properties.py`` holds them to this
module instant for instant, and ``tests/net/test_packet_gate.py``
plants it as the mutant its dispatch gate must catch.
"""

from repro.rpc2 import Rpc2Endpoint
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


class LoopEndpoint(Rpc2Endpoint):
    """An endpoint whose packets queue for two owned pacing loops."""

    def __init__(self, sim, network, node, port, host, **kwargs):
        super().__init__(sim, network, node, port, host,
                         cpu=LockCpu(sim, host), **kwargs)
        # Arrivals go back to the socket's inbox, for the receive loop.
        self.socket.deliver = self.socket._inbox.put
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
            datagram = yield self.socket.recv()
            yield from self.cpu.use(self.host.recv_cost(datagram.size))
            self.liveness.heard_from(datagram.src)
            self._dispatch(datagram.src, datagram.payload)
