"""Schema regression for the committed BENCH_perf.json artifact.

The benchmark file is machine-read by downstream tooling (and by the
next person diffing two checkouts), so its shape is pinned here: the
envelope, the per-row keys and value types, and that every row names a
catalogued scenario.  The live ``results_to_bench`` envelope is held
to the same contract so the committed file can never drift from what
``repro perf --json`` writes.
"""

import json
import os

import pytest

from repro.perf.runner import (BENCH_SCHEMA, SCENARIOS, results_to_bench,
                               run_perf)

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                          "BENCH_perf.json")

ENVELOPE_TYPES = {
    "schema": str,
    "python": str,
    "platform": str,
    "cpus": int,
    "max_rss_kb": int,
    "scenarios": list,
    "results": list,
}

ROW_TYPES = {
    "scenario": str,
    "seed": int,
    "wall_seconds": float,
    "events": int,
    "sim_seconds": float,
    "events_per_sec": float,
    "sim_seconds_per_wall_second": float,
    "simulators": int,
    "workers": int,
    "max_rss_kb": int,
    "detail": dict,
}


def check_envelope(bench):
    for key, kind in ENVELOPE_TYPES.items():
        assert key in bench, "envelope missing %r" % key
        assert isinstance(bench[key], kind), key
    assert bench["schema"] == BENCH_SCHEMA
    assert bench["scenarios"] == sorted(SCENARIOS)
    assert bench["cpus"] >= 1
    assert bench["max_rss_kb"] > 0
    for row in bench["results"]:
        check_row(row)


def check_row(row):
    for key, kind in ROW_TYPES.items():
        assert key in row, "row missing %r" % key
        assert isinstance(row[key], kind), (row["scenario"], key)
    assert row["scenario"] in SCENARIOS
    assert row["events"] > 0
    assert row["wall_seconds"] > 0
    assert row["workers"] >= 0
    assert row["max_rss_kb"] > 0
    for frame in row.get("hot_frames", []):
        assert {"function", "file", "line"} <= set(frame), frame


@pytest.fixture(scope="module")
def committed():
    with open(BENCH_PATH) as fh:
        return json.load(fh)


def test_committed_bench_envelope(committed):
    check_envelope(committed)


def test_committed_bench_covers_the_fleet_ladder(committed):
    names = {row["scenario"] for row in committed["results"]}
    assert {"fleet-8", "fleet-32", "fleet-64"} <= names
    # The sharded rows exist and carry a worker count.
    sharded = [row for row in committed["results"]
               if row["scenario"] in ("fleetd-64", "fleet-256",
                                      "fleet-1024")]
    assert sharded, "no sharded rows in the committed bench"
    assert all(row["workers"] >= 1 for row in sharded)
    assert all(row["detail"].get("shards", 0) >= 2 for row in sharded)


def test_committed_bench_streamed_rss_beats_resident(committed):
    """The ckpt rows carry the memory-envelope claim of the PR: the
    streamed path's peak RSS sits below the collect-then-write
    baseline on an identical workload (same fleet digest)."""
    rows = {row["scenario"]: row for row in committed["results"]}
    streamed = rows["ckpt-fleet-256"]
    resident = rows["ckpt-fleet-256-resident"]
    assert streamed["detail"]["streamed"] is True
    assert resident["detail"]["streamed"] is False
    assert (streamed["detail"]["fleet_digest"]
            == resident["detail"]["fleet_digest"])
    assert streamed["detail"]["days"] >= 4
    assert streamed["max_rss_kb"] < resident["max_rss_kb"]


def test_live_envelope_matches_the_contract():
    result = run_perf("fleet-golden", profile=False)
    bench = results_to_bench([result])
    check_envelope(bench)
    row = bench["results"][0]
    assert row["scenario"] == "fleet-golden"
    assert row["workers"] == 0
    # JSON round-trip preserves the shape (what actually lands on disk).
    check_envelope(json.loads(json.dumps(bench)))
