"""The TCP baseline."""

import pytest

from repro.net import ETHERNET, MODEM, Network
from repro.net.host import IDEAL, LAPTOP_1995, SERVER_1995
from repro.rpc2 import tcp_transfer
from repro.sim import RandomStreams, Simulator


def run_tcp(nbytes, profile=ETHERNET, loss=0.0, seed=0,
            src_host=IDEAL, dst_host=IDEAL):
    sim = Simulator()
    net = Network(sim, rng=RandomStreams(seed).stream("net"))
    net.add_link("a", "b", profile=profile, loss_rate=loss)
    process = tcp_transfer(sim, net, "a", "b", nbytes, src_host, dst_host)
    return sim.run(process)


def test_transfer_completes():
    elapsed = run_tcp(100_000)
    assert elapsed > 0


def test_wire_limit_respected():
    elapsed = run_tcp(1_000_000)
    # Cannot beat the 10 Mb/s wire even with free hosts.
    assert elapsed >= 1_000_000 * 8 / 10e6 * 0.95


def test_slow_start_visible_on_small_transfers():
    """Early round trips are window-limited, so small transfers get
    much worse goodput than large ones."""
    small = 10_000 / run_tcp(10_000)
    large = 1_000_000 / run_tcp(1_000_000)
    assert large > 1.5 * small


def test_loss_degrades_throughput():
    clean = 500_000 / run_tcp(500_000, seed=2)
    lossy = 500_000 / run_tcp(500_000, loss=0.03, seed=2)
    assert lossy < 0.7 * clean


def test_modem_transfer_near_nominal():
    elapsed = run_tcp(96_000, profile=MODEM)
    goodput = 96_000 * 8 / elapsed
    assert 5_000 < goodput < 8_600


def test_host_costs_bound_fast_networks():
    free = 1_000_000 / run_tcp(1_000_000)
    costly = 1_000_000 / run_tcp(1_000_000, src_host=LAPTOP_1995,
                                 dst_host=SERVER_1995)
    assert costly < 0.6 * free


def test_deterministic_given_seed():
    a = run_tcp(200_000, loss=0.02, seed=9)
    b = run_tcp(200_000, loss=0.02, seed=9)
    assert a == b


def test_a_datagram_kept_across_later_receives_is_untouched(monkeypatch):
    """Receivers may keep what they were handed: a delivered datagram
    is never reset or reused for a later packet."""
    kept = []
    deliver = Network._deliver

    def keeping(net, datagram):
        kept.append((datagram, datagram.size, datagram.payload))
        deliver(net, datagram)

    monkeypatch.setattr(Network, "_deliver", keeping)
    run_tcp(20_000)
    assert len(kept) > 10
    assert len({id(datagram) for datagram, _, _ in kept}) == len(kept)
    for datagram, size, payload in kept:
        assert datagram.size == size and datagram.payload is payload
