"""Datagram routing between nodes and UDP-style sockets."""

from repro.net.link import Link
from repro.net.packet import Datagram


class Socket:
    """An unreliable datagram socket bound to ``(node, port)``."""

    def __init__(self, network, node, port, deliver):
        self.network = network
        self.node = node
        self.port = port
        #: ``deliver(datagram)`` is called with every datagram that
        #: arrives here: the owner's own callback, given at bind time.
        self.deliver = deliver
        self.closed = False

    def send(self, dst, dst_port, payload, size):
        """Send a datagram; fire-and-forget, may be lost or dropped."""
        if self.closed:
            raise RuntimeError("socket is closed")
        self.network.transmit(Datagram(
            self.node, self.port, dst, dst_port, payload, size))

    def close(self):
        self.closed = True
        self.network._unbind(self)


class Network:
    """A set of nodes joined by point-to-point links.

    Topologies in this reproduction are client–server stars, so routing
    is single-hop: a datagram travels over the direct link between its
    source and destination node.  Datagrams to unreachable nodes are
    dropped (like IP with no route).
    """

    def __init__(self, sim, rng=None):
        self.sim = sim
        self._rng = rng
        #: ``(src, dst)`` -> the :class:`LinkDirection` a datagram from
        #: ``src`` to ``dst`` leaves on: one lookup per packet.
        self._routes = {}
        self._sockets = {}

    def add_link(self, node_a, node_b, profile=None, **overrides):
        """Create a link, optionally from a :class:`NetworkProfile`.

        With no network-level ``rng`` (the default), each link derives
        independent per-direction loss generators from the simulator's
        named streams; passing one shares a single loss sequence across
        every link and both directions — callers like the transport
        benchmark use that to vary whole trials by one seed.
        """
        parameters = {}
        if profile is not None:
            parameters.update(profile.link_kwargs())
        parameters.update(overrides)
        if self._rng is not None:
            parameters.setdefault("rng", self._rng)
        link = Link(self.sim, node_a, node_b,
                    deliver=self._deliver, **parameters)
        self._routes[node_b, node_a] = link.backward
        self._routes[node_a, node_b] = link.forward
        return link

    def link_between(self, node_a, node_b):
        """The link joining two nodes, or None."""
        direction = self._routes.get((node_a, node_b))
        return direction.link if direction is not None else None

    def socket(self, node, port, deliver):
        """Bind a datagram socket at ``(node, port)`` that hands every
        arriving datagram to ``deliver``."""
        key = (node, port)
        if key in self._sockets:
            raise ValueError("port %d already bound on %s" % (port, node))
        sock = Socket(self, node, port, deliver)
        self._sockets[key] = sock
        return sock

    def transmit(self, datagram):
        direction = self._routes.get((datagram.src, datagram.dst))
        if direction is not None:    # no route: silently dropped, like IP
            direction.send(datagram)

    def _deliver(self, datagram):
        """Every delivered datagram passes through here.  A closed
        socket is unbound, so a bound one takes delivery."""
        sock = self._sockets.get((datagram.dst, datagram.dst_port))
        if sock is not None:
            sock.deliver(datagram)

    def _unbind(self, sock):
        self._sockets.pop((sock.node, sock.port), None)
