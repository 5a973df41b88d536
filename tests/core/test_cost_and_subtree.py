"""The paper's future-work extension: cost-aware adaptation
(section 8)."""

import pytest

from repro.core.cost import (
    CELLULAR,
    FREE,
    LONG_DISTANCE,
    CostAwarePolicy,
    NetworkTariff,
)
from repro.net import MODEM
from repro.venus import CacheMissError, VenusConfig

from tests.conftest import build_testbed, connected

M = "/coda/usr/u"
MB = 1024 * 1024


# -------------------------------------------------------------- tariffs

def test_tariff_arithmetic():
    tariff = NetworkTariff("t", per_mb=2.0, per_minute=0.6)
    assert tariff.cost_of(nbytes=MB) == pytest.approx(2.0)
    assert tariff.cost_of(connected_seconds=60) == pytest.approx(0.6)
    assert tariff.cost_of(MB, 30) == pytest.approx(2.3)


def test_spend_threshold_grows_with_priority():
    policy = CostAwarePolicy(CELLULAR)
    assert policy.spend_threshold(900) > 100 * policy.spend_threshold(0)


def test_cost_approval():
    policy = CostAwarePolicy(CELLULAR)
    # A 4 MB fetch costs ~$10: unaffordable at priority 0, fine at 900.
    assert not policy.approves_fetch(0, 4 * MB)
    assert policy.approves_fetch(900, 4 * MB)
    # Everything is affordable on a free network.
    assert CostAwarePolicy(FREE).approves_fetch(0, 100 * MB)


def test_aging_stretch_on_per_byte_tariffs():
    free = CostAwarePolicy(FREE)
    paid = CostAwarePolicy(CELLULAR)
    assert free.effective_aging_window(600) == 600
    assert paid.effective_aging_window(600) > 600
    capped = CostAwarePolicy(NetworkTariff("x", per_mb=1000.0))
    assert capped.effective_aging_window(600) <= 600 * 8.0


def test_per_minute_tariff_prefers_fast_drain():
    assert CostAwarePolicy(LONG_DISTANCE).prefers_fast_drain
    assert not CostAwarePolicy(CELLULAR).prefers_fast_drain
    assert not CostAwarePolicy(FREE).prefers_fast_drain


# ------------------------------------------------ cost-aware Venus

def test_expensive_network_refuses_affordable_in_time_fetch():
    config = VenusConfig(start_daemons=False, tariff=CELLULAR)
    testbed = build_testbed(profile=MODEM, venus_config=config)
    connected(testbed)
    venus = testbed.venus
    entry = testbed.run(venus.stat(M + "/dir/b.txt"))
    venus.cache.remove(entry.fid)
    # 12 KB at priority 900: seconds of wait (fine), ~3 cents (fine).
    venus.hoard(M + "/dir/b.txt", 900)
    testbed.run(venus.read_file(M + "/dir/b.txt"))
    # But at priority 0 a 400 KB file costs ~$1 — refused for cost,
    # even though a very patient free-network user might wait.
    entry = testbed.run(venus.stat(M + "/dir/big.bin"))
    venus.cache.remove(entry.fid)
    venus.patience.alpha = 10_000.0     # infinitely patient in *time*
    with pytest.raises(CacheMissError):
        testbed.run(venus.read_file(M + "/dir/big.bin"))
    assert venus.misses.drain()[-1].reason == "cost"


def test_per_minute_tariff_drains_promptly():
    config = VenusConfig(tariff=LONG_DISTANCE, aging_window=3600.0,
                         daemon_period=5.0)
    testbed = build_testbed(profile=MODEM, venus_config=config)
    connected(testbed)
    venus = testbed.venus
    testbed.run(venus.write_file(M + "/dir/letter.txt", b"x" * 4_000))
    # Despite the one-hour configured window, the per-minute tariff
    # drives A to zero: the update ships within a daemon period or two.
    testbed.sim.run(until=testbed.sim.now + 60.0)
    assert len(venus.cml) == 0


def test_ledger_accounting():
    """A finished connection's minutes stay billed; disconnected time
    costs nothing, and the next connection's minutes add on."""
    config = VenusConfig(tariff=LONG_DISTANCE, start_daemons=False)
    testbed = build_testbed(profile=MODEM, venus_config=config)
    venus = testbed.venus
    connected(testbed)
    testbed.sim.run(until=testbed.sim.now + 300.0)
    venus.handle_disconnection()
    first = venus.network_cost()
    testbed.sim.run(until=testbed.sim.now + 3_000.0)
    assert venus.network_cost() == first
    connected(testbed)
    testbed.sim.run(until=testbed.sim.now + 300.0)
    assert venus.network_cost() == pytest.approx(2 * first, rel=0.15)


def test_network_cost_tracks_connection_and_bytes():
    config = VenusConfig(tariff=LONG_DISTANCE, start_daemons=False)
    testbed = build_testbed(profile=MODEM, venus_config=config)
    connected(testbed)
    venus = testbed.venus
    testbed.sim.run(until=testbed.sim.now + 600.0)
    cost = venus.network_cost()
    # Ten minutes of long distance at $0.12/min.
    assert cost == pytest.approx(1.2, rel=0.15)
