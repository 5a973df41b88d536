"""End-to-end determinism: the foundation of every benchmark claim."""

from repro.bench.replay import run_replay_cell
from repro.net import MODEM


def test_identical_replay_cells_are_bit_identical():
    a = run_replay_cell("purcell", MODEM, 600.0, 1.0)
    b = run_replay_cell("purcell", MODEM, 600.0, 1.0)
    assert a == b
    assert a["elapsed"] > 0 and a["shipped_bytes"] > 0


def test_fleet_study_deterministic():
    from repro.spec.fleet import FleetConfig, run_fleet_study
    config = FleetConfig(desktops=2, laptops=2, days=1.0)
    a_desk, a_lap = run_fleet_study(config)
    b_desk, b_lap = run_fleet_study(config)
    assert [(r.name, r.attempts, r.missing_pct, r.success_pct)
            for r in a_desk + a_lap] \
        == [(r.name, r.attempts, r.missing_pct, r.success_pct)
            for r in b_desk + b_lap]


def test_live_fleets_leave_the_global_content_counter_alone():
    """Every payload a live fleet writes carries an explicit tag, so a
    fleet's file contents never depend on what ran before it in the
    process (auto-tagged content draws a process-global counter)."""
    from repro.fs.content import SyntheticContent
    from repro.spec.fleet import CommuterConfig, FleetConfig, run_fleet_study
    before = SyntheticContent._counter
    run_fleet_study(FleetConfig(desktops=2, laptops=2, days=0.5))
    run_fleet_study(CommuterConfig(desktops=2, laptops=2, days=0.5))
    assert SyntheticContent._counter == before
