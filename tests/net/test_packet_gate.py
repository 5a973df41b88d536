"""The packet gate: calls into ``repro/net`` and events dispatched per
packet sent stay flat.

The same clock-free count as ``tests/venus/test_complexity_gate.py``
(a pure function of input, seed and size), on the path ``perfbench``'s
``bulk-transfer`` times: a datagram's trip from ``Socket.send`` over
the link to the receiver, plus the host cost model each transport
charges per packet.  Two transports, Figure 1's SFTP ``Store`` and its
TCP baseline, each over WaveLAN at 1 % loss and at two sizes.  A
per-packet hop that comes back — a route that builds a ``frozenset``
and walks ``link_between`` → ``Link.send`` → ``Link.direction`` again
— moves every packet's count, so the bound is tight: the reading plus
5 %.  So is an event per packet: an RPC2 packet costs three (its send
CPU finish, its arrival, its receive CPU finish), and the lock-held
CPU behind two pacing loops it replaced cost seven.  A TCP segment or
ack costs the same three plus its share of the RTO timers, where the
four processes of the retired TCP (``tests/rpc2/tcp_oracle.py``)
added inbox grants, an ack ``Store`` and an ``AnyOf`` per wait.
"""

import pytest

from repro.net import WAVELAN, Network
from repro.net.host import LAPTOP_1995, SERVER_1995
from repro.rpc2 import Rpc2Endpoint, tcp_transfer
from repro.sim import RandomStreams, Simulator
from repro.sim.process import Process
from tests.obs.test_obs_budget import calls_into, profiled
from tests.rpc2.lock_oracle import LoopEndpoint
from tests.rpc2.tcp_oracle import process_tcp_transfer

SIZES = (250_000, 1_000_000)
LOSS = 0.01

#: Calls into ``repro/net`` per packet, gated at the reading (1 MB)
#: plus 5 %.  SFTP 22.95 → 14.97 and TCP 16.97 → 8.99 since a packet
#: stopped building a frozenset route, hopping through ``Link`` and
#: ``Socket`` twice each, and carrying a closure and an id counter;
#: SFTP 14.97 → 10.99 since the host CPU is a clock, not a lock.
BUDGET = {"sftp": 10.99 * 1.05, "tcp": 8.99 * 1.05}

#: Events dispatched per packet.  SFTP read 7.49/7.48 (250 KB/1 MB)
#: behind the lock-held CPU and 3.48/3.49 since; TCP read 5.05/5.13 as
#: four processes and reads 3.14/3.22 as callback chains, gated at
#: the reading plus 2 %.
DISPATCH_BUDGET = {"sftp": (3.6, 3.6), "tcp": (3.20, 3.28)}


def _world():
    sim = Simulator()
    net = Network(sim, rng=RandomStreams(0).stream("net"))
    link = net.add_link("laptop", "server", profile=WAVELAN,
                        loss_rate=LOSS)
    return sim, net, link


def sftp_store(nbytes, endpoint=Rpc2Endpoint):
    """An SFTP ``Store`` of ``nbytes`` between two endpoints of class
    ``endpoint``; returns ``(packets sent, events dispatched)``."""
    sim, net, link = _world()
    client = endpoint(sim, net, "laptop", 2432, LAPTOP_1995,
                      default_bps=WAVELAN.bandwidth_bps)
    server = endpoint(sim, net, "server", 2432, SERVER_1995,
                      default_bps=WAVELAN.bandwidth_bps)
    server.register("Store", lambda ctx, args: {"got": ctx.received_bytes})
    call = client.connect("server").call("Store", {}, send_size=nbytes)
    assert sim.run(call).result["got"] == nbytes
    return link.stats().packets_sent, sim.dispatched


def tcp_send(nbytes, transfer=tcp_transfer):
    """A TCP bulk transfer of ``nbytes`` by ``transfer``; returns
    ``(packets sent, events dispatched)``."""
    sim, net, link = _world()
    sim.run(transfer(sim, net, "laptop", "server", nbytes,
                     LAPTOP_1995, SERVER_1995))
    return link.stats().packets_sent, sim.dispatched


TRANSFERS = {"sftp": sftp_store, "tcp": tcp_send}


def net_calls_per_packet(transfer, nbytes):
    profile, (packets, _dispatched) = profiled(lambda: transfer(nbytes))
    return calls_into("net", profile) / packets


def dispatches_per_packet(transfer, nbytes):
    packets, dispatched = transfer(nbytes)
    return dispatched / packets


@pytest.mark.parametrize("name", sorted(TRANSFERS))
def test_net_calls_per_packet_stay_flat_and_within_budget(name):
    short, long = (net_calls_per_packet(TRANSFERS[name], nbytes)
                   for nbytes in SIZES)
    assert abs(long - short) <= 0.01 * short, (short, long)
    assert max(short, long) <= BUDGET[name], (short, long)


def test_a_restored_link_walk_breaks_the_gate(monkeypatch):
    """Planted mutant: ``transmit`` routes the old way, through
    ``link_between`` and ``Link.direction``, two calls more per
    packet."""
    def walk(net, datagram):
        link = net.link_between(datagram.src, datagram.dst)
        if link is not None:
            link.direction(datagram.src).send(datagram)

    monkeypatch.setattr(Network, "transmit", walk)
    for name, transfer in TRANSFERS.items():
        assert net_calls_per_packet(transfer, SIZES[0]) > BUDGET[name]


@pytest.mark.parametrize("name", sorted(TRANSFERS))
def test_dispatches_per_packet_stay_within_budget(name):
    short, long = (dispatches_per_packet(TRANSFERS[name], nbytes)
                   for nbytes in SIZES)
    assert short <= DISPATCH_BUDGET[name][0], (short, long)
    assert long <= DISPATCH_BUDGET[name][1], (short, long)
    if name == "sftp":
        assert abs(long - short) <= 0.01 * short, (short, long)


def test_a_lock_held_cpu_breaks_the_dispatch_gate():
    """Planted mutant: the endpoint goes back to the lock-held CPU and
    two pacing loops, four events more per packet."""
    packets, dispatched = sftp_store(SIZES[0], endpoint=LoopEndpoint)
    assert dispatched / packets > DISPATCH_BUDGET["sftp"][0]


def test_a_tcp_transfer_starts_no_process(monkeypatch):
    started = []
    init = Process.__init__

    def counted(self, *args, **kwargs):
        started.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counted)
    tcp_send(SIZES[0])
    assert started == []


def test_the_process_tcp_breaks_the_dispatch_gate():
    """Planted mutant: the retired four-process TCP, with its inbox
    grants, ack ``Store`` and ``AnyOf`` per wait."""
    packets, dispatched = tcp_send(SIZES[0], transfer=process_tcp_transfer)
    assert dispatched / packets > DISPATCH_BUDGET["tcp"][0]
