"""Connectivity classification and hysteresis."""

from repro.core import ConnectionStrength, ConnectivityMonitor


def test_unreachable_is_none():
    monitor = ConnectivityMonitor()
    assert monitor.classify(False, 10e6) is ConnectionStrength.NONE


def test_basic_thresholding():
    monitor = ConnectivityMonitor()
    assert monitor.classify(True, 2e6) is ConnectionStrength.STRONG
    monitor2 = ConnectivityMonitor()
    assert monitor2.classify(True, 64_000) is ConnectionStrength.WEAK


def test_unknown_bandwidth_is_conservatively_weak():
    monitor = ConnectivityMonitor()
    assert monitor.classify(True, None) is ConnectionStrength.WEAK


def test_unknown_bandwidth_keeps_existing_class():
    monitor = ConnectivityMonitor()
    monitor.classify(True, 2e6)
    assert monitor.classify(True, None) is ConnectionStrength.STRONG


def test_hysteresis_prevents_flapping():
    monitor = ConnectivityMonitor()
    monitor.classify(True, 2e6)
    # A dip to just below the threshold does not demote...
    assert monitor.classify(True, 450_000) is ConnectionStrength.STRONG
    # ...but a real collapse does.
    assert monitor.classify(True, 100_000) is ConnectionStrength.WEAK
    # And recovery needs to clear the threshold plus margin.
    assert monitor.classify(True, 550_000) is ConnectionStrength.WEAK
    assert monitor.classify(True, 700_000) is ConnectionStrength.STRONG


def test_reconnect_resets_cleanly():
    monitor = ConnectivityMonitor()
    monitor.classify(True, 2e6)
    assert monitor.classify(False, None) is ConnectionStrength.NONE
    assert monitor.classify(True, 2e6) is ConnectionStrength.STRONG
