"""Property-based tests on the network and transport substrate."""

from hypothesis import example, given, settings, strategies as st

from repro.net import Datagram, Link
from repro.sim import Simulator


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=10_000),
                min_size=1, max_size=20),
       st.floats(min_value=1_000.0, max_value=1e7),
       st.floats(min_value=0.0, max_value=0.5))
def test_fifo_links_never_reorder(sizes, bandwidth, latency):
    """A FIFO link delivers packets in send order, whatever the mix."""
    sim = Simulator()
    arrived = []
    import random
    link = Link(sim, "a", "b", bandwidth_bps=bandwidth, latency=latency,
                rng=random.Random(0),
                deliver=lambda d: arrived.append(d.payload))
    sent = []
    for index, size in enumerate(sizes):
        link.forward.send(Datagram(src="a", src_port=1, dst="b", dst_port=2,
                           payload=index, size=size))
        sent.append(index)
    sim.run()
    assert arrived == sent


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=10_000),
                min_size=1, max_size=20),
       st.floats(min_value=1_000.0, max_value=1e7))
def test_link_throughput_never_exceeds_bandwidth(sizes, bandwidth):
    sim = Simulator()
    done = {}
    import random
    link = Link(sim, "a", "b", bandwidth_bps=bandwidth, latency=0.0,
                rng=random.Random(0),
                deliver=lambda d: done.setdefault("t", sim.now))
    total = sum(sizes)
    for size in sizes:
        link.forward.send(Datagram(src="a", src_port=1, dst="b", dst_port=2,
                           payload=None, size=size))
    sim.run()
    minimum = total * 8.0 / bandwidth
    assert sim.now >= minimum * 0.999


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31),
       st.floats(min_value=0.0, max_value=0.9))
def test_loss_statistics_conserve_packets(seed, loss):
    sim = Simulator()
    delivered = []
    import random
    link = Link(sim, "a", "b", bandwidth_bps=1e6, loss_rate=loss,
                rng=random.Random(seed),
                deliver=lambda d: delivered.append(d))
    n = 200
    for _ in range(n):
        link.forward.send(Datagram(src="a", src_port=1, dst="b", dst_port=2,
                           payload=None, size=100))
    sim.run()
    stats = link.forward.stats
    assert stats.packets_sent == n
    assert stats.packets_lost + stats.packets_delivered == n
    assert stats.packets_delivered == len(delivered)


ticks = st.integers(min_value=0, max_value=64).map(lambda n: n / 64.0)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=5_000),
                          ticks),          # (size, gap before send)
                min_size=1, max_size=25),
       st.floats(min_value=4_800.0, max_value=1e6),
       st.floats(min_value=0.0, max_value=0.2),
       st.floats(min_value=0.0, max_value=0.5),
       st.integers(min_value=0, max_value=2**31),
       st.one_of(st.none(),
                 st.tuples(ticks,          # (outage after, duration)
                           st.floats(min_value=0.05, max_value=3.0))))
def test_lossy_outage_prone_link_keeps_order_and_conserves_bytes(
        plan, bandwidth, latency, loss, seed, outage):
    """Random packet mixes under random loss and a mid-run outage that
    drops in-flight packets: deliveries stay in send order and every
    byte sent is delivered, lost or dropped — none lingers in flight."""
    import random
    sim = Simulator()
    arrived = []
    link = Link(sim, "a", "b", bandwidth_bps=bandwidth, latency=latency,
                loss_rate=loss, rng=random.Random(seed),
                deliver=lambda d: arrived.append((d.payload, d.size)))
    if outage is not None:
        link.outage(after=outage[0], duration=outage[1])

    def sender():
        for index, (size, gap) in enumerate(plan):
            if gap:
                yield sim.sleep(gap)
            link.forward.send(Datagram(src="a", src_port=1, dst="b", dst_port=2,
                               payload=index, size=size))

    sim.process(sender(), name="sender")
    sim.run()
    indices = [index for index, _ in arrived]
    assert indices == sorted(set(indices))
    stats = link.forward.stats
    assert stats.bytes_sent == sum(size for size, _ in plan)
    assert (stats.bytes_delivered + stats.bytes_lost
            + stats.bytes_dropped_down) == stats.bytes_sent
    assert stats.bytes_delivered == sum(size for _, size in arrived)
    assert link.forward.bytes_in_flight == 0


# max_examples only: the deadline-safe "repro" profile registered in
# tests/conftest.py supplies deadline=None and suppresses the too_slow
# health check, which the pinned worst-case example below used to flake
# on loaded CI runners.
@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=500_000),
       st.sampled_from([9_600.0, 64_000.0, 2e6, 10e6]),
       st.floats(min_value=0.0, max_value=0.05))
# A quarter-megabyte store over a 9.6 Kb/s link at ~4.7% loss can
# exhaust SFTP's retransmit budget and legally abort — the paper's
# weak-connectivity give-up behaviour, not a byte-accounting bug.
@example(nbytes=262143, bandwidth=9600.0, loss=0.046875)
def test_sftp_delivers_exact_byte_counts(nbytes, bandwidth, loss):
    """Whatever the link, a completed Store delivers exactly its bytes.

    A Store that the transport *declares dead* (retry budget exhausted
    under sustained loss on a slow link) is outside the property: the
    call fails loudly with ConnectionDead rather than completing, so
    there is no delivery to check bytes against.
    """
    from repro.net import Network
    from repro.net.host import IDEAL
    from repro.rpc2 import Rpc2Endpoint
    from repro.rpc2.errors import ConnectionDead
    from repro.sim import RandomStreams
    sim = Simulator()
    net = Network(sim, rng=RandomStreams(nbytes).stream("net"))
    net.add_link("c", "s", bandwidth_bps=bandwidth, loss_rate=loss)
    client = Rpc2Endpoint(sim, net, "c", 2432, IDEAL,
                          default_bps=bandwidth)
    server = Rpc2Endpoint(sim, net, "s", 2432, IDEAL,
                          default_bps=bandwidth)
    server.register("Store", lambda ctx, args: {"got": ctx.received_bytes})
    conn = client.connect("s")
    try:
        result = sim.run(conn.call("Store", {}, send_size=nbytes))
    except ConnectionDead:
        return
    assert result.result["got"] == nbytes
