"""Link model: serialization, latency, contention, loss, outages."""

import random

import pytest

from repro.net import Datagram, Link


def mk_link(sim, bandwidth=8000.0, latency=0.0, loss=0.0,
            bits_per_byte=8, deliver=None, seed=0):
    return Link(sim, "a", "b", bandwidth_bps=bandwidth, latency=latency,
                loss_rate=loss, bits_per_byte=bits_per_byte,
                rng=random.Random(seed), deliver=deliver)


def send(link, datagram):
    """Put ``datagram`` on the direction leaving its source."""
    link.direction(datagram.src).send(datagram)


def dg(size, src="a", dst="b"):
    return Datagram(src=src, src_port=1, dst=dst, dst_port=2,
                    payload=None, size=size)


def test_serialization_delay(sim):
    arrived = []
    link = mk_link(sim, bandwidth=8000.0,
                   deliver=lambda d: arrived.append(sim.now))
    send(link, dg(1000))   # 1000 B * 8 b / 8000 b/s = 1 s
    sim.run()
    assert arrived == [1.0]


def test_latency_adds_after_serialization(sim):
    arrived = []
    link = mk_link(sim, bandwidth=8000.0, latency=0.25,
                   deliver=lambda d: arrived.append(sim.now))
    send(link, dg(1000))
    sim.run()
    assert arrived == [1.25]


def test_async_serial_framing_costs_ten_bits(sim):
    arrived = []
    link = mk_link(sim, bandwidth=9600.0, bits_per_byte=10,
                   deliver=lambda d: arrived.append(sim.now))
    send(link, dg(960))    # 960 B * 10 b / 9600 b/s = 1 s
    sim.run()
    assert arrived == [1.0]


def test_fifo_contention_queues_packets(sim):
    arrived = []
    link = mk_link(sim, bandwidth=8000.0,
                   deliver=lambda d: arrived.append((d, sim.now)))
    first, second = dg(1000), dg(1000)
    send(link, first)
    send(link, second)     # must wait for the first to leave the wire
    sim.run()
    assert [t for _d, t in arrived] == [1.0, 2.0]
    assert [d for d, _t in arrived] == [first, second]


def test_directions_do_not_contend(sim):
    arrived = []
    link = mk_link(sim, bandwidth=8000.0,
                   deliver=lambda d: arrived.append((d.dst, sim.now)))
    send(link, dg(1000, src="a", dst="b"))
    send(link, dg(1000, src="b", dst="a"))
    sim.run()
    assert sorted(arrived) == [("a", 1.0), ("b", 1.0)]


def test_loss_drops_packets_deterministically(sim):
    arrived = []
    link = mk_link(sim, loss=0.5, seed=42,
                   deliver=lambda d: arrived.append(d))
    for _ in range(100):
        send(link, dg(10))
    sim.run()
    assert 25 < len(arrived) < 75
    stats = link.stats()
    assert stats.packets_lost + stats.packets_delivered == 100


def test_down_link_drops_everything(sim):
    arrived = []
    link = mk_link(sim, deliver=lambda d: arrived.append(d))
    link.set_up(False)
    send(link, dg(10))
    send(link, dg(25))
    sim.run()
    assert arrived == []
    assert link.stats().packets_dropped_down == 2
    assert link.stats().bytes_dropped_down == 35


def test_packet_in_flight_lost_when_link_drops(sim):
    arrived = []
    link = mk_link(sim, bandwidth=8000.0,
                   deliver=lambda d: arrived.append(d))
    send(link, dg(1000))   # arrives at t=1 if the link stays up

    def chop():
        yield sim.sleep(0.5)
        link.set_up(False)

    sim.process(chop())
    sim.run()
    assert arrived == []
    assert link.stats().bytes_dropped_down == 1000


def test_dropped_bytes_aggregate_across_directions(sim):
    link = mk_link(sim, deliver=lambda d: None)
    link.set_up(False)
    send(link, dg(100))                     # forward
    send(link, dg(40, src="b", dst="a"))    # backward
    sim.run()
    stats = link.stats()
    assert stats.packets_dropped_down == 2
    assert stats.bytes_dropped_down == 140
    assert link.forward.stats.bytes_dropped_down == 100
    assert link.backward.stats.bytes_dropped_down == 40


def test_outage_schedule(sim):
    arrived = []
    link = mk_link(sim, bandwidth=80_000.0,
                   deliver=lambda d: arrived.append(sim.now))
    link.outage(after=1.0, duration=2.0)

    def sender():
        send(link, dg(10))          # t=0: up, delivered
        yield sim.sleep(2.0)     # t=2: down
        send(link, dg(10))
        yield sim.sleep(2.0)     # t=4: up again
        send(link, dg(10))

    sim.process(sender())
    sim.run()
    assert len(arrived) == 2


def test_set_bandwidth_on_the_fly(sim):
    arrived = []
    link = mk_link(sim, bandwidth=8000.0,
                   deliver=lambda d: arrived.append(sim.now))
    link.set_bandwidth(80_000.0)
    send(link, dg(1000))
    sim.run()
    assert arrived == [0.1]


def test_direction_lookup_rejects_stranger(sim):
    link = mk_link(sim)
    with pytest.raises(ValueError):
        link.direction("marauder")


def test_zero_size_datagram_rejected():
    with pytest.raises(ValueError):
        Datagram(src="a", src_port=1, dst="b", dst_port=2,
                 payload=None, size=0)


# ---------------------------------------------------------------------------
# Default RNG derivation (the PR 3 regression: both directions of a
# default-constructed link used to share one random.Random(0))


def test_default_link_directions_draw_independently(sim):
    from repro.sim import RandomStreams
    sim.rand = RandomStreams(0)
    link = Link(sim, "a", "b", bandwidth_bps=8000.0)
    forward = [link.forward._rng.random() for _ in range(8)]
    backward = [link.backward._rng.random() for _ in range(8)]
    assert forward != backward
    # Each direction reads the named stream keyed by its label, so a
    # draw on one direction never advances the other.
    assert link.forward._rng is sim.rand.stream("link.loss::a->b")
    assert link.backward._rng is sim.rand.stream("link.loss::b->a")


def test_default_link_rngs_keyed_by_seed(sim):
    from repro.sim import RandomStreams, Simulator
    sim.rand = RandomStreams(0)
    other = Simulator()
    other.rand = RandomStreams(1)
    link_a = Link(sim, "a", "b", bandwidth_bps=8000.0)
    link_b = Link(other, "a", "b", bandwidth_bps=8000.0)
    assert [link_a.forward._rng.random() for _ in range(4)] \
        != [link_b.forward._rng.random() for _ in range(4)]


def test_default_link_without_streams_still_independent():
    from repro.sim import Simulator
    bare = Simulator()          # no sim.rand attached
    link = Link(bare, "a", "b", bandwidth_bps=8000.0)
    forward = [link.forward._rng.random() for _ in range(8)]
    backward = [link.backward._rng.random() for _ in range(8)]
    assert forward != backward
    # ... and reproducibly so: a second identical link draws the same.
    again = Link(Simulator(), "a", "b", bandwidth_bps=8000.0)
    assert [again.forward._rng.random() for _ in range(8)] == forward


def test_explicit_rng_still_shared_across_directions(sim):
    shared = random.Random(7)
    link = Link(sim, "a", "b", bandwidth_bps=8000.0, rng=shared)
    assert link.forward._rng is shared
    assert link.backward._rng is shared


def test_loss_bytes_and_in_flight_conserve(sim):
    lossy = mk_link(sim, bandwidth=8000.0, loss=0.5, seed=3)
    for _ in range(40):
        send(lossy, dg(1000))
    direction = lossy.forward
    stats = direction.stats
    # Mid-run: some packets still on the wire.
    assert stats.bytes_sent == (stats.bytes_delivered + stats.bytes_lost
                                + stats.bytes_dropped_down
                                + direction.bytes_in_flight)
    sim.run()
    assert direction.bytes_in_flight == 0
    assert stats.bytes_sent == (stats.bytes_delivered + stats.bytes_lost
                                + stats.bytes_dropped_down)
    assert stats.packets_lost > 0
    assert stats.bytes_lost == stats.packets_lost * 1000
