"""The TCP baseline."""

import pytest

from repro.net import ETHERNET, MODEM, WAVELAN, Network
from repro.net.host import IDEAL, LAPTOP_1995, SERVER_1995
from repro.rpc2 import tcp_transfer
from repro.sim import Event, RandomStreams, Simulator


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


def test_a_transfer_is_an_event_settled_with_the_elapsed_seconds():
    sim = Simulator()
    net = Network(sim)
    net.add_link("a", "b", profile=ETHERNET)
    done = tcp_transfer(sim, net, "a", "b", 10_000, IDEAL, IDEAL)
    assert isinstance(done, Event) and not done.triggered
    elapsed = sim.run(done)
    assert done._ok is True and done.value == elapsed == sim.now > 0


def test_a_stalled_transfer_raises_out_of_run():
    """WaveLAN at 2.5 % loss, loss seed 16: the final ack is lost, the
    receiver has finished, and the sender's RTO backs off past its
    limit (ROADMAP item 1(a))."""
    sim = Simulator()
    net = Network(sim, rng=RandomStreams(16).stream("net"))
    net.add_link("laptop", "server", profile=WAVELAN, loss_rate=0.025)
    done = tcp_transfer(sim, net, "laptop", "server", 1_000_000,
                        LAPTOP_1995, SERVER_1995)
    with pytest.raises(RuntimeError, match="tcp transfer stalled"):
        sim.run(done)
    assert sim.now == 168.7739905199998


def test_a_completed_transfer_frees_its_ports():
    sim = Simulator()
    net = Network(sim, rng=RandomStreams(1).stream("net"))
    net.add_link("a", "b", profile=ETHERNET, loss_rate=0.01)
    first = sim.run(tcp_transfer(sim, net, "a", "b", 50_000, IDEAL, IDEAL))
    start = sim.now
    second = sim.run(tcp_transfer(sim, net, "a", "b", 50_000, IDEAL, IDEAL))
    assert first > 0 and second > 0
    assert sim.now == pytest.approx(start + second)
