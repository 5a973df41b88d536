"""Shard execution and the cross-process determinism guarantee.

The heart of this file is the equivalence satellite: ``fleet-8`` run
sharded with 1, 2, and 4 workers must merge to byte-identical output —
timeline digests, metrics, reports — across worker counts *and*
against the plain in-process run.  Worker count may only change
wall-clock.
"""

import time

import pytest

from repro.fleetd import plan_shards, run_sharded
from repro.fleetd.executor import (digest_rows, map_shards, run_shard,
                                   timeline_rows)
from repro.fleetd.plan import shard_config
from repro.obs import Observatory
from repro.spec.fleet import run_fleet_study

DAYS = 0.1   # keeps four full fleet-8 runs inside tier-1 budget


@pytest.fixture(scope="module")
def runs():
    """fleet-8 merged reports keyed by worker count (0 = in-process)."""
    return {workers: run_sharded("fleet-8", workers=workers, days=DAYS)
            for workers in (0, 1, 2, 4)}


def test_merged_output_identical_across_worker_counts(runs):
    reference = runs[0]
    assert reference.fleet_digest, "in-process run carried no digest"
    for workers in (1, 2, 4):
        pooled = runs[workers]
        assert pooled.workers == workers
        assert pooled.metrics_rows == reference.metrics_rows
        assert pooled.fleet_digest == reference.fleet_digest
        assert pooled.reports == reference.reports
        assert pooled.shards == reference.shards


def test_merged_report_totals(runs):
    report = runs[0]
    assert report.clients == 8
    assert len(report.shards) == 2
    assert report.dispatched == sum(s["dispatched"] for s in report.shards)
    assert report.dispatched > 0
    assert report.sim_seconds == pytest.approx(2 * DAYS * 86400.0)
    assert len(report.reports) == 8
    assert {client["shard"] for client in report.reports} == {0, 1}


def test_shard_digest_matches_shipped_timeline(runs):
    # The digest each worker shipped is the digest of the timeline of
    # the same shard's clients simulated alone, in this process —
    # nothing got lost in pickling.
    report = runs[2]
    shard = plan_shards("fleet-8", days=DAYS)[0]
    observatory = Observatory()
    run_fleet_study(shard_config(shard), observatory=observatory)
    assert digest_rows(timeline_rows(observatory)) == \
        report.shards[0]["digest"]


def test_run_shard_is_deterministic():
    shard = plan_shards("fleet-8", days=DAYS)[1]
    first = run_shard(shard)
    second = run_shard(shard)
    assert first.digest == second.digest
    assert first.events == second.events
    assert first.dispatched == second.dispatched
    assert first.reports == second.reports


def test_uninstrumented_run_carries_no_digest():
    shard = plan_shards("fleet-8", days=DAYS)[0]
    bare = run_shard(shard, instrument=False)
    assert bare.digest is None
    assert bare.events == 0
    assert bare.metrics_rows == []
    assert bare.stream_stats is None
    # ... but the kernel totals and client reports still come back.
    assert bare.dispatched > 0
    assert len(bare.reports) == shard.desktops + shard.laptops


def test_pool_never_outsizes_the_plan(runs):
    # workers=4 against a 2-shard plan must behave exactly like
    # workers=2 (pool capped at len(shards)); covered by the
    # equivalence assertions above, spelled out here for the reader.
    assert runs[4].fleet_digest == runs[2].fleet_digest
    assert runs[4].shards == runs[2].shards


def _slow_first(shard, base):
    time.sleep(0.5 if shard == 0 else 0.0)
    return base + shard, time.monotonic()


def _loses_shard_one(shard):
    if shard == 1:
        raise KeyError("shard 1 lost")
    return shard


@pytest.mark.parametrize("workers", [0, 2])
def test_map_shards_keeps_shard_order_and_reraises(workers):
    """The tree's one fan-out: results in shard order even when a
    later shard finishes first, and a worker's exception surfaces in
    the parent instead of a silently short result list."""
    results = map_shards(_slow_first, [0, 1, 2], workers, 10)
    assert [value for value, _finished in results] == [10, 11, 12]
    if workers:
        assert results[1][1] < results[0][1]
    with pytest.raises(KeyError, match="shard 1 lost"):
        map_shards(_loses_shard_one, [0, 1, 2], workers)
