"""Figure 9: observed volume validation statistics from a client fleet."""

import os

from repro.bench import fleet
from repro.spec.fleet import FleetConfig, run_fleet_study


def _config(fast=False):
    # The full four-week, 26-client study takes a few minutes; the
    # default reproduces the same statistics over two weeks.  Set
    # REPRO_FULL=1 for the paper-scale run.
    if fast:
        return FleetConfig(desktops=4, laptops=2, days=1.0)
    if os.environ.get("REPRO_FULL"):
        return FleetConfig(days=28.0)
    return FleetConfig(days=10.0)


def test_fig09_fleet(once, fast):
    desktops, laptops = once(
        lambda: run_fleet_study(_config(fast=fast)))
    for table in fleet.format_tables(desktops, laptops):
        table.show()
    if fast:
        everyone = desktops + laptops
        assert len(everyone) == 6
        for report in everyone:
            assert report.attempts > 0
            assert 0.0 <= report.success_pct <= 100.0
        return

    everyone = desktops + laptops
    mean = lambda xs: sum(xs) / len(xs)

    # "On average, clients found themselves without a volume stamp
    # only in 3% of the cases."  (We land in the low single digits.)
    assert mean([r.missing_pct for r in everyone]) < 8.0

    # "Most success rates were over 97%".
    assert mean([r.success_pct for r in everyone]) > 94.0
    over_95 = [r for r in everyone if r.success_pct > 95.0]
    assert len(over_95) >= 0.7 * len(everyone)

    # "each successful validation saved roughly 53 individual
    # validations" — tens of objects per success.
    assert 20 < mean([r.objs_per_success for r in everyone]) < 120

    # Clients actually validated volumes at a realistic rate
    # (the paper's per-client mean is ~1310-1400 over four weeks).
    assert mean([r.attempts for r in everyone]) > 100
