"""Point-to-point duplex links with bandwidth, latency, loss, and outages.

Each direction of a link serializes packets FIFO at the direction's
bandwidth: a packet cannot begin transmission until the previous one
has left the wire.  This is what makes a background trickle
reintegration *contend* with a foreground cache-miss fetch — the effect
the paper's adaptive chunk sizing exists to bound.
"""

from dataclasses import dataclass

from repro.sim.events import Timeout
from repro.sim.rand import derive_rng


@dataclass
class LinkStats:
    """Byte and packet accounting for one link direction."""

    packets_sent: int = 0
    packets_delivered: int = 0
    packets_lost: int = 0
    packets_dropped_down: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    bytes_lost: int = 0
    bytes_dropped_down: int = 0


class LinkDirection:
    """One direction of a duplex link."""

    def __init__(self, sim, bandwidth_bps, latency, loss_rate,
                 bits_per_byte, rng, deliver, header_savings=0,
                 label=""):
        self.sim = sim
        self.label = label           # e.g. "laptop->server", for metrics
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency = float(latency)
        self.loss_rate = float(loss_rate)
        self.bits_per_byte = float(bits_per_byte)
        # Van Jacobson style header compression on the serial line
        # (section 4.1's "header compression as in TCP [9]"): each
        # packet sheds this many header bytes on the wire.
        self.header_savings = int(header_savings)
        self._rng = rng
        self._deliver = deliver
        # The arrival callback, bound once: no closure per packet.
        self._arrive = self._complete_delivery
        #: The :class:`Link` this direction belongs to (set by it).
        self.link = None
        self._busy_until = 0.0
        self.up = True
        self.stats = LinkStats()
        #: Bytes scheduled for delivery but not yet delivered or
        #: dropped; together with the stats this gives byte
        #: conservation: sent = delivered + lost + dropped + in flight.
        self.bytes_in_flight = 0
        # The per-packet obs counters, held as ``(observatory, packets,
        # bytes)`` and looked up again only when ``sim.obs`` is another
        # observatory: a registry lookup per packet (kwargs dict plus
        # a sorted label tuple) costs more than the inc() it serves.
        self._sent_meters = self._delivered_meters = (None, None, None)

    def _meters(self, obs, packets_name, bytes_name):
        counter = obs.metrics.counter
        return (obs, counter(packets_name, link=self.label),
                counter(bytes_name, link=self.label))

    def transmission_time(self, size_bytes):
        """Seconds to serialize ``size_bytes`` onto the wire."""
        effective = max(1, size_bytes - self.header_savings)
        return effective * self.bits_per_byte / self.bandwidth_bps

    def send(self, datagram):
        """Enqueue ``datagram`` for transmission; returns nothing.

        Packets sent while the direction is down are silently dropped,
        as are randomly lost packets — receivers only ever see
        successful deliveries, exactly like UDP.
        """
        size = datagram.size
        stats = self.stats
        stats.packets_sent += 1
        stats.bytes_sent += size
        sim = self.sim
        obs = sim.obs
        if obs.enabled:
            meters = self._sent_meters
            if meters[0] is not obs:
                meters = self._sent_meters = self._meters(
                    obs, "link.packets_sent", "link.bytes_sent")
            meters[1].inc()
            meters[2].inc(size)
        if not self.up:
            stats.packets_dropped_down += 1
            stats.bytes_dropped_down += size
            if obs.enabled:
                obs.metrics.counter("link.packets_dropped",
                                    link=self.label, reason="down").inc()
                obs.metrics.counter("link.bytes_dropped", link=self.label,
                                    reason="down").inc(size)
                obs.event("packet_drop", link=self.label, reason="down",
                          bytes=size)
            return
        now = sim.now
        busy_until = self._busy_until
        done = ((busy_until if busy_until > now else now)
                + self.transmission_time(size))
        self._busy_until = done
        if self.loss_rate and self._rng.random() < self.loss_rate:
            stats.packets_lost += 1
            stats.bytes_lost += size
            if obs.enabled:
                obs.metrics.counter("link.packets_dropped",
                                    link=self.label, reason="loss").inc()
                obs.event("packet_drop", link=self.label, reason="loss",
                          bytes=size)
            return
        self.bytes_in_flight += size
        # A timeout carrying the datagram as its value, with a callback
        # bound once: delivery runs at exactly the instant a per-packet
        # delivery process would, from one heap event instead of three
        # and with no generator or closure per packet.
        Timeout(sim, (done - now) + self.latency,
                datagram).callbacks.append(self._arrive)

    def _complete_delivery(self, arrival):
        datagram = arrival._value
        size = datagram.size
        obs = self.sim.obs
        self.bytes_in_flight -= size
        stats = self.stats
        if not self.up:
            # The link dropped while the packet was in flight.
            stats.packets_dropped_down += 1
            stats.bytes_dropped_down += size
            if obs.enabled:
                obs.metrics.counter("link.packets_dropped", link=self.label,
                                    reason="down_in_flight").inc()
                obs.metrics.counter("link.bytes_dropped", link=self.label,
                                    reason="down_in_flight").inc(size)
                obs.event("packet_drop", link=self.label,
                          reason="down_in_flight", bytes=size)
            return
        stats.packets_delivered += 1
        stats.bytes_delivered += size
        if obs.enabled:
            meters = self._delivered_meters
            if meters[0] is not obs:
                meters = self._delivered_meters = self._meters(
                    obs, "link.packets_delivered", "link.bytes_delivered")
            meters[1].inc()
            meters[2].inc(size)
        self._deliver(datagram)


class Link:
    """A duplex link between two named nodes.

    Both directions run at ``bandwidth_bps`` and ``loss_rate``, and
    :meth:`set_bandwidth` and :meth:`set_loss_rate` change both.  ``up``
    and ``down`` model intermittence; packets in flight when the link
    drops are lost.
    """

    def __init__(self, sim, node_a, node_b, bandwidth_bps,
                 latency=0.001, loss_rate=0.0, bits_per_byte=8,
                 rng=None, deliver=None, header_savings=0):
        self.sim = sim
        self.node_a = node_a
        self.node_b = node_b
        self.name = "%s<->%s" % (node_a, node_b)
        deliver = deliver or (lambda datagram: None)
        forward_label = "%s->%s" % (node_a, node_b)
        backward_label = "%s->%s" % (node_b, node_a)
        if rng is not None:
            # An explicit rng is the caller taking charge of loss
            # sequencing (e.g. the transport benchmark varies it per
            # trial); both directions share it, as before.
            forward_rng = backward_rng = rng
        else:
            # Default: independent per-direction generators named by
            # the direction label, so forward losses never perturb
            # backward draws and no two links share a sequence.
            forward_rng = self._direction_rng(forward_label)
            backward_rng = self._direction_rng(backward_label)
        self.forward = LinkDirection(
            sim, bandwidth_bps, latency, loss_rate,
            bits_per_byte, forward_rng, deliver,
            header_savings=header_savings, label=forward_label)
        self.backward = LinkDirection(
            sim, bandwidth_bps, latency, loss_rate,
            bits_per_byte, backward_rng, deliver,
            header_savings=header_savings, label=backward_label)
        self.forward.link = self.backward.link = self

    def _direction_rng(self, label):
        """Loss generator for one direction, keyed by its label.

        Drawn from the simulator's named streams when present (so the
        testbed seed governs it); a bare simulator falls back to a
        generator derived from the label alone, which is still
        deterministic and still independent per direction.
        """
        streams = getattr(self.sim, "rand", None)
        if streams is not None:
            return streams.stream("link.loss::%s" % label)
        return derive_rng("link.loss", label)

    @property
    def up(self):
        return self.forward.up and self.backward.up

    def set_up(self, up):
        """Bring both directions up or down."""
        changed = self.up != bool(up)
        self.forward.up = up
        self.backward.up = up
        if changed:
            obs = self.sim.obs
            if obs.enabled:
                obs.event("link_up" if up else "link_down", link=self.name)
                obs.metrics.counter(
                    "link.transitions", link=self.name,
                    to="up" if up else "down").inc()

    def set_loss_rate(self, loss_rate):
        self.forward.loss_rate = loss_rate
        self.backward.loss_rate = loss_rate

    def set_bandwidth(self, bandwidth_bps):
        """Change link speed on the fly (e.g. roaming between networks)."""
        self.forward.bandwidth_bps = float(bandwidth_bps)
        self.backward.bandwidth_bps = float(bandwidth_bps)

    def direction(self, src):
        """The direction used by packets leaving node ``src``."""
        if src == self.node_a:
            return self.forward
        if src == self.node_b:
            return self.backward
        raise ValueError("node %r is not on link %s" % (src, self.name))

    def outage(self, after, duration):
        """Schedule an outage starting ``after`` seconds from now."""
        self.sim.process(self._outage(after, duration), name="outage")

    def _outage(self, after, duration):
        yield self.sim.sleep(after)
        self.set_up(False)
        yield self.sim.sleep(duration)
        self.set_up(True)

    def stats(self):
        """Aggregate stats over both directions."""
        total = LinkStats()
        for direction in (self.forward, self.backward):
            total.packets_sent += direction.stats.packets_sent
            total.packets_delivered += direction.stats.packets_delivered
            total.packets_lost += direction.stats.packets_lost
            total.packets_dropped_down += direction.stats.packets_dropped_down
            total.bytes_sent += direction.stats.bytes_sent
            total.bytes_delivered += direction.stats.bytes_delivered
            total.bytes_lost += direction.stats.bytes_lost
            total.bytes_dropped_down += direction.stats.bytes_dropped_down
        return total
