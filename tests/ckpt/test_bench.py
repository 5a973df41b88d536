"""The memory-envelope harness and its perf-scenario plumbing.

The expensive fleet-256 rows live in BENCH_perf.json (pinned by
tests/bench/test_bench_schema.py); here the harness itself is held to
its contract on a tiny fleet: the inline and subprocess paths agree on
the simulation (same fleet digest — a fresh interpreter changes RSS,
never the schedule), and a perf row built from a subprocess scenario
carries the child's RSS reading, not the parent's.
"""

import pytest

from repro.ckpt.bench import measure, measure_subprocess

TINY = dict(scenario="fleet-8", days=1, day_seconds=300.0)


@pytest.fixture(scope="module")
def inline_result(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ckpt-bench") / "store")
    return measure(stream=True, out=out, **TINY)


def test_measure_reports_the_run_and_its_rss(inline_result):
    assert inline_result["scenario"] == "fleet-8"
    assert inline_result["streamed"] is True
    assert inline_result["clients"] == 8
    assert inline_result["shards"] == 2
    assert inline_result["dispatched"] > 0
    assert inline_result["max_rss_kb"] > 0
    assert len(inline_result["fleet_digest"]) == 64


def test_subprocess_measurement_matches_the_inline_schedule(
        inline_result):
    child = measure_subprocess(stream=False, **TINY)
    assert child["fleet_digest"] == inline_result["fleet_digest"]
    assert child["dispatched"] == inline_result["dispatched"]
    assert child["streamed"] is False
    assert child["max_rss_kb"] > 0


def test_subprocess_failure_surfaces_the_child_stderr():
    with pytest.raises(RuntimeError, match="ckpt bench subprocess"):
        measure_subprocess("no-such-scenario", 1, 300.0, True)


def test_perf_row_carries_the_child_rss(monkeypatch):
    """A ckpt perf scenario's max_rss_kb is the subprocess's reading:
    the stubbed child claims an RSS no parent-side getrusage would
    report, and the row must carry exactly that claim."""
    from repro.ckpt import bench
    from repro.perf.runner import run_perf

    def stub(scenario, days, day_seconds, stream, seed=0):
        return {"scenario": scenario, "days": days,
                "day_seconds": day_seconds, "streamed": bool(stream),
                "clients": 256, "shards": 16, "dispatched": 123456,
                "sim_seconds": float(days) * day_seconds * 16,
                "fleet_digest": "f" * 64, "max_rss_kb": 424242}
    monkeypatch.setattr(bench, "measure_subprocess", stub)
    result = run_perf("ckpt-fleet-256", profile=True)
    assert result.max_rss_kb == 424242
    assert result.workers == 0
    assert result.events == 123456
    assert not result.hot_frames       # profiled rerun must be skipped
    assert result.detail["streamed"] is True


def test_ckpt_scenarios_reject_a_worker_count():
    from repro.perf.runner import run_perf

    with pytest.raises(ValueError, match="--workers"):
        run_perf("ckpt-fleet-256", workers=4)


def test_entry_point_round_trips_json_over_stdio(monkeypatch, capsys,
                                                 tmp_path):
    """What the child side of measure_subprocess runs: spec JSON on
    stdin, result JSON on stdout."""
    import io
    import json

    from repro.ckpt import bench

    spec = dict(TINY, stream=True, out=str(tmp_path / "store"))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    assert bench.main() == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "fleet-8"
    assert payload["max_rss_kb"] > 0
