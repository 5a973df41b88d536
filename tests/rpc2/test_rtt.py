"""RTT and bandwidth estimation."""

import pytest

from repro.rpc2 import BandwidthEstimator, NetworkEstimator, RttEstimator


def test_initial_rto_before_samples():
    estimator = RttEstimator(initial_rto=2.0)
    assert estimator.rto == 2.0


def test_first_sample_sets_srtt():
    estimator = RttEstimator()
    estimator.observe(0.1)
    assert estimator.srtt == pytest.approx(0.1)
    assert estimator.rttvar == pytest.approx(0.05)


def test_rto_tracks_srtt_plus_variance():
    estimator = RttEstimator()
    for _ in range(50):
        estimator.observe(1.0)
    assert estimator.srtt == pytest.approx(1.0, rel=1e-3)
    # Variance decays toward zero on constant samples.
    assert estimator.rto == pytest.approx(1.0, abs=0.05)


def test_rto_bounds():
    estimator = RttEstimator()
    estimator.observe(0.001)
    assert estimator.rto == 0.3
    estimator2 = RttEstimator()
    estimator2.observe(500.0)
    assert estimator2.rto == 60.0


def test_negative_samples_ignored():
    estimator = RttEstimator()
    estimator.observe(-1.0)
    assert estimator.samples == 0


def test_variance_rises_on_jitter():
    steady = RttEstimator()
    jittery = RttEstimator()
    for i in range(50):
        steady.observe(0.2)
        jittery.observe(0.05 if i % 2 else 0.35)
    assert jittery.rto > steady.rto


def test_bandwidth_ewma_converges():
    estimator = BandwidthEstimator()
    assert estimator.bytes_per_sec is None
    for _ in range(30):
        estimator.observe(10_000, 1.0)
    assert estimator.bytes_per_sec == pytest.approx(10_000, rel=0.01)
    assert estimator.bits_per_sec == pytest.approx(80_000, rel=0.01)


def test_bandwidth_adapts_to_change():
    estimator = BandwidthEstimator()
    for _ in range(10):
        estimator.observe(10_000, 1.0)
    for _ in range(10):
        estimator.observe(1_000, 1.0)
    assert estimator.bytes_per_sec < 2_000


def test_bandwidth_rejects_degenerate_samples():
    estimator = BandwidthEstimator()
    estimator.observe(0, 1.0)
    estimator.observe(100, 0.0)
    assert estimator.samples == 0


def test_expected_transfer_time_uses_default_until_estimated():
    estimator = NetworkEstimator()
    # 9600 bits at the 9600 b/s default = 1 second.
    assert estimator.expected_transfer_time(1200) == pytest.approx(1.0)
    estimator.observe_transfer(120_000, 1.0)   # ~1 Mb/s
    assert estimator.expected_transfer_time(120_000) == pytest.approx(
        1.0, rel=0.05)


def test_expected_transfer_time_includes_latency():
    estimator = NetworkEstimator()
    estimator.rtt.observe(0.5)
    estimator.observe_transfer(1200, 1.0)
    assert estimator.expected_transfer_time(1200) == pytest.approx(1.5)
