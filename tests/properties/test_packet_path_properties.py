"""The packet path against an independent oracle.

Random datagrams cross a three-node star (``a`` and ``b`` each joined
to the hub ``s``) through real sockets, with loss off.  A ten-line
reference that shares no code with ``repro/net`` — one FIFO wire per
link direction — says when each one must arrive.  Meanwhile every
link direction must conserve bytes at every instant, and each datagram
must be counted on the direction ``link_between(src, dst).direction(src)``
names, also after ``add_link`` replaces a pair mid-run.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.net import Network
from repro.sim import Simulator
from tests.conftest import queued_socket

NODES = ("a", "b", "s")
PORT = 7
ticks = st.integers(min_value=0, max_value=32).map(lambda n: n / 64.0)


def reference_arrivals(sends, bandwidth, latency, bits_per_byte, savings):
    """``{payload: arrival}`` for sends ``(t, wire, payload, size)`` in
    send order: each wire serialises FIFO, then the bits propagate."""
    free_at, arrivals = {}, {}
    for t, wire, payload, size in sends:
        start = max(t, free_at.get(wire, 0.0))
        done = start + max(1, size - savings) * bits_per_byte / bandwidth
        free_at[wire] = done
        arrivals[payload] = done + latency
    return arrivals


@settings(max_examples=60)
@given(st.lists(st.tuples(st.sampled_from([(src, dst) for src in NODES
                                           for dst in NODES if src != dst]),
                          st.integers(min_value=1, max_value=3_000),
                          ticks),                  # (route, size, gap)
                min_size=1, max_size=30),
       st.floats(min_value=9_600.0, max_value=1e7),
       st.floats(min_value=0.0, max_value=0.2),
       st.sampled_from([8, 10]),
       st.integers(min_value=0, max_value=60),
       st.one_of(st.none(),
                 st.tuples(st.integers(min_value=0, max_value=29),
                           st.sampled_from([("a", "s"), ("s", "a"),
                                            ("b", "s"), ("s", "b")]))))
def test_datagrams_arrive_when_a_fifo_wire_says_and_are_counted_once(
        plan, bandwidth, latency, bits_per_byte, savings, replace):
    sim = Simulator()
    net = Network(sim)
    link_kwargs = dict(bandwidth_bps=bandwidth, latency=latency,
                       bits_per_byte=bits_per_byte, header_savings=savings)
    links = [net.add_link("a", "s", **link_kwargs),
             net.add_link("b", "s", **link_kwargs)]
    sockets, inboxes = {}, {}
    for node in NODES:
        sockets[node], inboxes[node] = queued_socket(net, node, PORT)
    generation = {frozenset(pair): 0 for pair in (("a", "s"), ("b", "s"))}
    arrived = {}

    def conserved():
        for link in links:
            for direction in (link.forward, link.backward):
                stats = direction.stats
                assert stats.bytes_sent == (
                    stats.bytes_delivered + stats.bytes_lost
                    + stats.bytes_dropped_down + direction.bytes_in_flight)

    def receiver(node):
        while True:
            datagram = yield inboxes[node].get()
            conserved()
            assert datagram.dst == node and datagram.payload not in arrived
            arrived[datagram.payload] = sim.now

    sends, expected = [], {}        # expected: wire -> (direction, count)

    def sender():
        for index, ((src, dst), size, gap) in enumerate(plan):
            if gap:
                yield sim.sleep(gap)
            if replace is not None and replace[0] == index:
                x, y = replace[1]
                links.append(net.add_link(x, y, **link_kwargs))
                generation[frozenset((x, y))] += 1
                assert net.link_between(x, y) is links[-1]
                assert net.link_between(y, x) is links[-1]
            pair = frozenset((src, dst))
            if pair in generation:
                wire = (pair, generation[pair], src)
                sends.append((sim.now, wire, index, size))
                direction = net.link_between(src, dst).direction(src)
                named, count = expected.get(wire, (direction, 0))
                assert named is direction
                expected[wire] = (direction, count + 1)
            sockets[src].send(dst, PORT, index, size)
            conserved()

    for node in NODES:
        sim.process(receiver(node), name="recv-%s" % node)
    sim.process(sender(), name="sender")
    sim.run()

    want = reference_arrivals(sends, bandwidth, latency, bits_per_byte,
                              savings)
    assert set(arrived) == set(want)    # leaf-to-leaf has no route
    for payload, when in want.items():
        assert math.isclose(arrived[payload], when,
                            rel_tol=1e-9, abs_tol=1e-12), payload
    counted = {id(direction): count
               for direction, count in expected.values()}
    assert len(counted) == len(expected)    # one direction per wire
    for link in links:
        for direction in (link.forward, link.backward):
            assert direction.stats.packets_sent == counted.get(
                id(direction), 0)
            assert direction.bytes_in_flight == 0
    conserved()
