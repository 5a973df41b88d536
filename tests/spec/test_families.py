"""The four measured workload families: determinism and semantics.

Each family must be byte-identical across two runs (the golden
fixtures additionally pin it across checkouts), pass the invariant
sweep, and actually exhibit the mechanism it was built to measure —
conflicts detected and repaired, patience-gated misses, commutes with
reintegration on reconnect, trickle reintegration under replay.
"""

import pytest

from repro.analysis.divergence import capture_timeline
from repro.obs import Observatory
from repro.spec.catalog import get
from repro.spec.compile import run_spec, stream_sweep
from repro.spec.golden import (
    commuter_golden,
    conflict_storm_golden,
    doc_archive_golden,
    replay_golden,
)

GOLDEN_SPECS = (
    "mod:repro.spec.golden:commuter_golden",
    "mod:repro.spec.golden:conflict_storm_golden",
    "mod:repro.spec.golden:doc_archive_golden",
    "mod:repro.spec.golden:replay_golden",
)


@pytest.mark.parametrize("spec", GOLDEN_SPECS)
def test_two_runs_are_byte_identical(spec):
    assert capture_timeline(spec) == capture_timeline(spec)


def test_conflict_storm_detects_and_repairs_conflicts():
    summary = conflict_storm_golden()
    assert summary["conflicts_detected"] >= 1
    assert summary["conflicts_pending"] == 0
    assert summary["conflicts_resolved_mine"] \
        + summary["conflicts_resolved_theirs"] \
        == summary["conflicts_detected"]
    assert summary["reintegration_duplicates"] == 0
    assert summary["cml_reintegrated"] > 0


def test_doc_archive_exercises_the_miss_taxonomy():
    """The full shipped spec: both transparent and denied misses."""
    summary = run_spec(get("doc-archive")).summary
    assert summary["misses_transparent"] > 0
    assert summary["misses_denied"] > 0
    assert summary["miss_log_records"] > 0
    assert summary["hoard_walks"] >= 1
    assert summary["fetches"] > 0


#: EXPERIMENTS.md's "Scenario families" numbers, from ``repro run
#: <name>`` at the default seed (the full-scale commuter fleet is the
#: slowest, ~3.5 s).  Floats match to the two decimals the text gives.
EXPERIMENTS_NUMBERS = {
    "commuter": {"commutes": 24, "disconnected_seconds": 60_241.7,
                 "cml_reintegrated": 38, "mean_missing_pct": 0.852,
                 "mean_success_pct": 97.146},
    "conflict-storm": {"conflicts_detected": 19,
                       "conflicts_resolved_mine": 8,
                       "conflicts_resolved_theirs": 11,
                       "conflicts_pending": 0,
                       "reintegration_duplicates": 0,
                       "cml_reintegrated": 15},
    "doc-archive": {"reads": 60, "fetches": 31, "misses_transparent": 5,
                    "misses_denied": 1},
    "replay": {"operations": 38_329, "updates": 189, "misses": 0,
               "elapsed": 1_975.87, "total_elapsed": 2_521.98,
               "begin_cml_bytes": 281_727, "end_cml_bytes": 821_608,
               "shipped_bytes": 1_533_463, "chunks_committed": 62,
               "optimized_bytes": 4_094_248},
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS_NUMBERS))
def test_experiments_md_family_numbers_hold(name):
    summary = run_spec(get(name)).summary
    assert {key: summary[key] for key in EXPERIMENTS_NUMBERS[name]} \
        == pytest.approx(EXPERIMENTS_NUMBERS[name], abs=0.005)


def test_doc_archive_golden_reaches_the_weak_phase():
    summary = doc_archive_golden()
    assert summary["misses_transparent"] > 0
    assert summary["cml_reintegrated"] > 0


def test_replay_golden_trickles_past_the_warm_up():
    """The pinned prefix outlives the aging window and the warming
    period: chunks ship, and measurement starts with a non-empty CML."""
    summary = replay_golden()
    assert summary["operations"] == 9_000
    assert summary["chunks_committed"] > 0
    assert summary["begin_cml_bytes"] > 0
    assert summary["elapsed"] < summary["total_elapsed"]


def test_commuter_laptops_commute_and_reintegrate():
    summary = commuter_golden()
    assert summary["clients"] == 4
    assert summary["commutes"] == 4          # 2 laptops x 2 edges
    assert summary["disconnected_seconds"] > 0
    assert summary["cml_reintegrated"] > 0


@pytest.mark.parametrize("name, params", [
    ("conflict-storm", {"writers": 3, "rounds": 1}),
    ("doc-archive", {"containers": 3, "reads": 12,
                     "hoarded_containers": 1}),
    ("replay", {"records": 6_000}),
])
def test_testbed_families_pass_the_invariant_sweep(name, params):
    observatory = Observatory()
    result = run_spec(get(name).with_params(**params),
                      observatory=observatory, check_invariants=True)
    assert result.checkers
    for checker in result.checkers:
        assert checker.check_all().violations == []
    assert stream_sweep(observatory) == []


def test_commuter_passes_the_invariant_sweep():
    from dataclasses import replace
    observatory = Observatory()
    spec = get("commuter")
    spec = replace(spec, clients=replace(spec.clients, count=4,
                                         desktops=2, laptops=2))
    result = run_spec(spec, observatory=observatory, days=0.5,
                      check_invariants=True)
    assert result.checkers
    for checker in result.checkers:
        assert checker.check_all().violations == []
    assert stream_sweep(observatory) == []


def test_fleetd_runs_commuter_shards():
    from repro.fleetd.executor import run_shard
    from repro.fleetd.plan import plan_shards
    shards = plan_shards("commuter", seed=0, days=0.5)
    assert len(shards) == 4
    assert all(shard.family == "commuter" for shard in shards)
    result = run_shard(shards[0])
    assert result.clients == shards[0].desktops + shards[0].laptops
    assert result.digest
    assert result.stream_stats["monotone"]
