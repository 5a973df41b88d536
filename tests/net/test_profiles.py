"""Network profiles and host cost models."""

import pytest

from repro.net import (
    ETHERNET,
    ISDN,
    MODEM,
    PROFILES,
    SLIP_1200,
    WAVELAN,
    Network,
    profile_by_name,
)
from repro.net.host import IDEAL, LAPTOP_1995, SERVER_1995
from repro.net.cpu import HostCpu


def test_paper_nominal_speeds():
    assert ETHERNET.bandwidth_bps == 10e6
    assert WAVELAN.bandwidth_bps == 2e6
    assert ISDN.bandwidth_bps == 64e3
    assert MODEM.bandwidth_bps == 9600
    assert SLIP_1200.bandwidth_bps == 1200


def test_profiles_ordered_fastest_first():
    speeds = [p.bandwidth_bps for p in PROFILES]
    assert speeds == sorted(speeds, reverse=True)


def test_serial_lines_pay_framing():
    assert MODEM.bits_per_byte == 10
    assert SLIP_1200.bits_per_byte == 10
    assert ETHERNET.bits_per_byte == 8


def test_transmission_time(sim):
    """A link built from a profile serializes at its rate and framing."""
    net = Network(sim)
    modem = net.add_link("c", "s", profile=MODEM)
    ethernet = net.add_link("d", "s", profile=ETHERNET)
    assert modem.forward.transmission_time(960) == pytest.approx(1.0)
    assert ethernet.forward.transmission_time(1_250_000) \
        == pytest.approx(1.0)


def test_profile_lookup():
    assert profile_by_name("modem") is MODEM
    assert profile_by_name("Ethernet") is ETHERNET
    with pytest.raises(KeyError):
        profile_by_name("carrier-pigeon")


def test_bandwidth_spans_four_orders_of_magnitude():
    assert ETHERNET.bandwidth_bps / SLIP_1200.bandwidth_bps > 8000


def test_host_costs_scale_with_size():
    small = LAPTOP_1995.send_cost(40)
    large = LAPTOP_1995.send_cost(1064)
    assert large > small > 0


def test_receive_path_costs_more_on_1995_hosts():
    assert LAPTOP_1995.recv_cost(1024) > LAPTOP_1995.send_cost(1024)
    assert SERVER_1995.send_cost(1024) < LAPTOP_1995.send_cost(1024)


def test_ideal_host_is_free():
    assert IDEAL.send_cost(10_000) == 0.0
    assert IDEAL.recv_cost(10_000) == 0.0


def test_host_cpu_serializes_work(sim):
    cpu = HostCpu(sim, LAPTOP_1995)
    finished = []

    def job(tag):
        yield from cpu.use(1.0)
        finished.append((tag, sim.now))

    sim.process(job("a"))
    sim.process(job("b"))
    sim.run()
    assert finished == [("a", 1.0), ("b", 2.0)]
    assert cpu.busy_seconds == pytest.approx(2.0)


def test_host_cpu_zero_cost_is_free(sim):
    cpu = HostCpu(sim, IDEAL)

    def job():
        yield from cpu.use(0.0)
        return sim.now

    assert sim.run(sim.process(job())) == 0.0
