"""The TCP callback chains against the retired four-process TCP.

Both run the same transfers: Ethernet, WaveLAN and Modem at three loss
rates each, the 1995 laptop and server or free hosts, both directions,
1 B to 100 KB, three loss seeds; Figure 1's six cells at 1 MB; and
the three WaveLAN seeds whose transfers stall (ROADMAP item 1(a)),
which must stall at the same instant.  Each run yields the result (or
the error and the instant it surfaced), both directions'
``LinkStats`` and the ordered log of every datagram sent: its instant,
its source and its payload.  The loss generator is shared by both
directions, so a packet sent out of order against the other end's
would move every later loss.
"""

import itertools

import pytest

from repro.bench.transport import LOSS
from repro.net import ETHERNET, MODEM, WAVELAN, Network
from repro.net.host import IDEAL, LAPTOP_1995, SERVER_1995
from repro.rpc2 import tcp, tcp_transfer
from repro.sim import RandomStreams, Simulator
from tests.rpc2.tcp_oracle import process_tcp_transfer

LOSSES = {ETHERNET: (0.0, 0.01, 0.05), WAVELAN: (0.0, 0.025, 0.1),
          MODEM: (0.0, 0.002, 0.05)}
HOSTS = ((LAPTOP_1995, SERVER_1995), (IDEAL, IDEAL))
SIZES = (1, 1023, 1024, 1025, 20_000, 100_000)

GRID = [(profile, loss, direction, hosts, nbytes, seed)
        for profile, hosts, direction, nbytes, seed in itertools.product(
            LOSSES, HOSTS, ("send", "receive"), SIZES, range(3))
        if profile is not MODEM or nbytes <= 20_000
        for loss in LOSSES[profile]]
FIGURE_1 = [(profile, LOSS[profile.name], direction, HOSTS[0], 1_000_000, 0)
            for profile in LOSSES for direction in ("send", "receive")]
#: ``(direction, seed, instant)`` of the WaveLAN transfers that stall.
STALLS = (("send", 16, 168.7739905199998),
          ("send", 2004, 168.2150738799998),
          ("receive", 2003, 173.9054380800004))


def trace(transfer, profile, loss, direction, hosts, nbytes, seed):
    """``(outcome, forward stats, backward stats, transmit log)`` of one
    transfer; the outcome is ``("ok", elapsed)`` or ``(error, now)``."""
    sim = Simulator()
    net = Network(sim, rng=RandomStreams(seed).stream("net"))
    link = net.add_link("laptop", "server", profile=profile,
                        loss_rate=loss)
    log = []
    transmit = net.transmit

    def logged(datagram):
        log.append((sim.now, datagram.src, tuple(datagram.payload.items())))
        transmit(datagram)

    net.transmit = logged
    laptop, server = hosts
    if direction == "send":
        done = transfer(sim, net, "laptop", "server", nbytes, laptop, server)
    else:
        done = transfer(sim, net, "server", "laptop", nbytes, server, laptop)
    try:
        outcome = ("ok", sim.run(done))
    except RuntimeError as error:
        outcome = (str(error), sim.now)
    return outcome, link.forward.stats, link.backward.stats, log


def differences(cases):
    return [case for case in cases
            if trace(tcp_transfer, *case)
            != trace(process_tcp_transfer, *case)]


def test_the_callback_chains_send_what_the_processes_sent():
    assert len(GRID) == 612
    assert differences(GRID + FIGURE_1) == []


@pytest.mark.parametrize("direction, seed, instant", STALLS)
def test_the_stalls_reproduce_at_the_same_instant(direction, seed, instant):
    case = (WAVELAN, LOSS["WaveLan"], direction, HOSTS[0], 1_000_000, seed)
    new, old = trace(tcp_transfer, *case), trace(process_tcp_transfer, *case)
    assert new == old
    assert new[0] == ("tcp transfer stalled", instant)


class EagerSender(tcp._TcpSender):
    """Planted mutant: reads the acks absorbed so far after every
    segment of a window fill, not only once the window is full."""

    def _sent(self, cost):
        self.next_seq += 1
        while self._acks:
            if self._read_ack():
                return
        self.run()


def test_a_sender_that_reads_acks_mid_window_fails_it(monkeypatch):
    monkeypatch.setattr(tcp, "_TcpSender", EagerSender)
    assert differences(GRID)
