"""The packet gate: calls into ``repro/net`` per packet sent stay flat.

The same clock-free count as ``tests/venus/test_complexity_gate.py``
(a pure function of input, seed and size), on the path ``perfbench``'s
``bulk-transfer`` times: a datagram's trip from ``Socket.send`` over
the link to the receiver's inbox, plus the host cost model each
transport charges per packet.  Two transports, Figure 1's SFTP
``Store`` and its TCP baseline, each over WaveLAN at 1 % loss and at
two sizes.  A per-packet hop that comes back — a route that builds a
``frozenset`` and walks ``link_between`` → ``Link.send`` →
``Link.direction`` again — moves every packet's count, so the bound is
tight: the reading plus 5 %.
"""

import pytest

from repro.net import WAVELAN, Network
from repro.net.host import LAPTOP_1995, SERVER_1995
from repro.rpc2 import Rpc2Endpoint, tcp_transfer
from repro.sim import RandomStreams, Simulator
from tests.obs.test_obs_budget import calls_into, profiled

SIZES = (250_000, 1_000_000)
LOSS = 0.01

#: Calls into ``repro/net`` per packet, gated at the reading (1 MB)
#: plus 5 %.  SFTP 22.95 → 14.97 and TCP 16.97 → 8.99 since a packet
#: stopped building a frozenset route, hopping through ``Link`` and
#: ``Socket`` twice each, and carrying a closure and an id counter.
BUDGET = {"sftp": 14.97 * 1.05, "tcp": 8.99 * 1.05}


def _world():
    sim = Simulator()
    net = Network(sim, rng=RandomStreams(0).stream("net"))
    link = net.add_link("laptop", "server", profile=WAVELAN,
                        loss_rate=LOSS)
    return sim, net, link


def sftp_store(nbytes):
    """An SFTP ``Store`` of ``nbytes``; returns the packets sent."""
    sim, net, link = _world()
    client = Rpc2Endpoint(sim, net, "laptop", 2432, LAPTOP_1995,
                          default_bps=WAVELAN.bandwidth_bps)
    server = Rpc2Endpoint(sim, net, "server", 2432, SERVER_1995,
                          default_bps=WAVELAN.bandwidth_bps)
    server.register("Store", lambda ctx, args: {"got": ctx.received_bytes})
    call = client.connect("server").call("Store", {}, send_size=nbytes)
    assert sim.run(call).result["got"] == nbytes
    return link.stats().packets_sent


def tcp_send(nbytes):
    """A TCP bulk transfer of ``nbytes``; returns the packets sent."""
    sim, net, link = _world()
    sim.run(tcp_transfer(sim, net, "laptop", "server", nbytes,
                         LAPTOP_1995, SERVER_1995))
    return link.stats().packets_sent


TRANSFERS = {"sftp": sftp_store, "tcp": tcp_send}


def net_calls_per_packet(transfer, nbytes):
    profile, packets = profiled(lambda: transfer(nbytes))
    return calls_into("net", profile) / packets


@pytest.mark.parametrize("name", sorted(TRANSFERS))
def test_net_calls_per_packet_stay_flat_and_within_budget(name):
    short, long = (net_calls_per_packet(TRANSFERS[name], nbytes)
                   for nbytes in SIZES)
    assert abs(long - short) <= 0.01 * short, (short, long)
    assert max(short, long) <= BUDGET[name], (short, long)


def test_a_restored_link_walk_breaks_the_gate(monkeypatch):
    """Planted mutant: ``transmit`` routes the old way, through
    ``link_between`` and ``Link.send`` (which asks ``Link.direction``),
    three calls more per packet."""
    def walk(net, datagram):
        link = net.link_between(datagram.src, datagram.dst)
        if link is not None:
            link.send(datagram)

    monkeypatch.setattr(Network, "transmit", walk)
    for name, transfer in TRANSFERS.items():
        assert net_calls_per_packet(transfer, SIZES[0]) > BUDGET[name]
