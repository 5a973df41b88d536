"""The merge layer: a pure fold over shard results, in shard order."""

import json

from repro.fleetd.executor import ShardResult
from repro.fleetd.merge import (
    fleet_digest,
    format_report,
    merge_results,
    write_report,
)
from repro.obs.metrics import merge_rows, sum_counters


def _result(index, **overrides):
    fields = dict(
        index=index, seed=100 + index, desktops=2, laptops=1,
        dispatched=1000 + index, sim_seconds=3600.0,
        digest="digest-%d" % index, events=10 + index,
        reports=[{"name": "s%02d-bach" % index, "attempts": 4,
                  "success_pct": 90.0, "missing_pct": 1.0}],
        metrics_rows=[{"metric": "cache.hits", "type": "counter",
                       "value": 5 + index, "labels": {"node": "n"}}],
        stream_stats={"monotone": True, "nodes": [], "kinds": {},
                      "first_time": 0.0, "last_time": 1.0,
                      "prefix": "s%02d-" % index},
    )
    fields.update(overrides)
    return ShardResult(**fields)


def test_fleet_digest_chains_in_shard_order():
    results = [_result(0), _result(1)]
    digest = fleet_digest(results)
    assert digest == fleet_digest([_result(0), _result(1)])
    # Order is load-bearing: swapped shards are a different fleet.
    swapped = [_result(1), _result(0)]
    assert fleet_digest(swapped) != digest


def test_fleet_digest_refuses_partial_coverage():
    assert fleet_digest([_result(0), _result(1, digest=None)]) is None


def test_merge_rows_is_lossless_and_sorted():
    rows_a = [{"metric": "link.bytes_sent", "type": "counter",
               "value": 7, "labels": {"link": "modem"}}]
    rows_b = [{"metric": "link.bytes_sent", "type": "counter",
               "value": 9, "labels": {"link": "modem"}}]
    merged = merge_rows([(0, rows_a), (1, rows_b)])
    # Same metric + same labels from two shards must NOT collapse: the
    # shard label keeps both rows alive.
    assert len(merged) == 2
    assert [row["labels"]["shard"] for row in merged] == [0, 1]
    # Inputs were not mutated.
    assert "shard" not in rows_a[0]["labels"]
    assert sum_counters(merged) == {"link.bytes_sent": 16}


def test_merge_results_pools_and_sums():
    from repro.fleetd import plan_shards
    shards = plan_shards("fleet-8", days=0.5)
    report = merge_results("fleet-8", 0, 2, shards,
                           [_result(0), _result(1)])
    assert report.scenario == "fleet-8"
    assert report.workers == 2
    assert report.days == 0.5
    assert report.clients == 6
    assert report.dispatched == 2001
    assert report.validation_attempts == 8
    assert report.mean_success_pct == 90.0
    assert [client["shard"] for client in report.reports] == [0, 1]
    assert report.fleet_digest is not None


def test_report_roundtrips_to_json(tmp_path):
    from repro.fleetd import plan_shards
    shards = plan_shards("fleet-8", days=0.5)
    report = merge_results("fleet-8", 0, 2, shards,
                           [_result(0), _result(1)])
    path = write_report(report, str(tmp_path / "FLEET_report.json"))
    loaded = json.load(open(path))
    assert loaded["schema"] == "repro.fleetd/1"
    assert loaded["fleet_digest"] == report.fleet_digest
    assert loaded["clients"] == 6
    assert len(loaded["shards"]) == 2
    text = format_report(report)
    assert "2 shard(s)" in text
    assert report.fleet_digest in text
