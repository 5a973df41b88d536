"""SFTP engine details: fragmentation arithmetic, loss recovery, aborts."""

import pytest

from repro.net import ETHERNET, Network
from repro.net.host import IDEAL
from repro.rpc2 import Rpc2Endpoint
from repro.rpc2.sftp import SftpSender, packet_count
from repro.sim import RandomStreams, Simulator


def test_packet_count_arithmetic():
    assert packet_count(0) == 1
    assert packet_count(1) == 1
    assert packet_count(1024) == 1
    assert packet_count(1025) == 2
    assert packet_count(10 * 1024) == 10


def build(loss=0.0, seed=0):
    sim = Simulator()
    net = Network(sim, rng=RandomStreams(seed).stream("net"))
    link = net.add_link("c", "s", profile=ETHERNET, loss_rate=loss)
    client = Rpc2Endpoint(sim, net, "c", 2432, IDEAL)
    server = Rpc2Endpoint(sim, net, "s", 2432, IDEAL)
    return sim, link, client, server


def test_last_packet_size_is_remainder():
    sim, _l, client, _s = build()
    sender = SftpSender(sim, client, "s", ("t",), size=2500)
    assert sender.total == 3
    assert sender._packet_size(0) == 1024
    assert sender._packet_size(2) == 452


@pytest.mark.parametrize("loss", [0.0, 0.02, 0.10])
def test_transfer_completes_under_loss(loss):
    sim, _link, client, server = build(loss=loss, seed=11)
    server.register("Store", lambda ctx, args: {"got": ctx.received_bytes})
    conn = client.connect("s")
    result = sim.run(conn.call("Store", {}, send_size=200_000))
    assert result.result["got"] == 200_000


def test_transfer_aborts_when_link_dies_midway():
    sim, link, client, server = build()
    server.register("Store", lambda ctx, args: {"got": ctx.received_bytes})
    conn = client.connect("s")

    def chop():
        yield sim.sleep(0.05)
        link.set_up(False)

    sim.process(chop())
    from repro.rpc2 import ConnectionDead
    with pytest.raises(ConnectionDead):
        sim.run(conn.call("Store", {}, send_size=5_000_000,
                          max_retries=2))


def test_large_transfer_bandwidth_estimate_reasonable():
    sim, _link, client, server = build()
    server.register("Fetch", lambda ctx, args: (None, args["n"]))
    conn = client.connect("s")
    sim.run(conn.call("Fetch", {"n": 1_000_000}))
    bw = server.estimator("c").bandwidth.bits_per_sec
    # Wire-limited (IDEAL hosts): should be within 2x of 10 Mb/s.
    assert bw is not None and bw > 4e6


def test_tiny_transfer_single_packet():
    sim, _link, client, server = build()
    server.register("Fetch", lambda ctx, args: (None, args["n"]))
    conn = client.connect("s")
    result = sim.run(conn.call("Fetch", {"n": 1}))
    assert result.bulk_bytes == 1
