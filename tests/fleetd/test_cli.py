"""``repro run <spec> --shards`` and the ledger ``--workers`` plumbing."""

import json

from repro.cli import build_parser, main
from tests.conftest import exits_2

ARGS = ["run", "fleet-8", "--shards", "--days", "0.1"]


def test_parser_defaults():
    """One default per flag, whatever the mode: the canonical streams,
    the catalogue duration, the in-process reference."""
    args = build_parser().parse_args(["run", "fleet-8"])
    assert args.command == "run"
    assert args.seed is None
    assert args.days is None
    assert args.workers is None      # resolved to 0 under --shards/--ckpt
    assert not (args.shards or args.ckpt or args.verify)


def test_fleetd_runs_and_reports(capsys):
    assert main(ARGS + ["--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "fleetd fleet-8" in out
    assert "fleet digest" in out
    assert "shard 00" in out and "shard 01" in out


def test_fleetd_verify_passes(capsys):
    assert main(ARGS + ["--workers", "2", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "byte-identical" in out


def test_fleetd_json_report(tmp_path, capsys):
    out_file = tmp_path / "FLEET_report.json"
    assert main(ARGS + ["--workers", "1", "--json", str(out_file)]) == 0
    loaded = json.load(open(out_file))
    assert loaded["schema"] == "repro.fleetd/1"
    assert loaded["scenario"] == "fleet-8"
    assert loaded["seed"] == 0           # no --seed: the canonical streams
    assert loaded["clients"] == 8
    assert len(loaded["shards"]) == 2
    assert all(shard["digest"] for shard in loaded["shards"])


def test_fleetd_in_process_workers_zero(capsys):
    assert main(ARGS) == 0
    assert "in-process" in capsys.readouterr().out


def test_fleetd_unknown_scenario(capsys):
    assert "fleet-1024" in exits_2(["run", "fleet-9000", "--shards"], capsys)


def test_fleetd_fast_mode_shrinks_days(monkeypatch, capsys):
    """The CI smoke shape: fleet-8 catalogues 2.0 days, REPRO_FAST runs
    an eighth, pooled, and proves it equivalent on the spot."""
    monkeypatch.setenv("REPRO_FAST", "1")
    assert main(["run", "fleet-8", "--shards", "--workers", "2",
                 "--verify"]) == 0
    out = capsys.readouterr().out
    assert "0.25 day(s)" in out
    assert "byte-identical" in out


def test_perf_rejects_workers_on_unsharded(capsys, monkeypatch, tmp_path):
    """``--workers`` sizes the pool of the selected rows that run a
    shard plan, and is refused when none of them does."""
    import repro.perf
    err = exits_2(["ledger", "perf", "--row", "fleet-8", "--workers", "2"],
                  capsys)
    assert "--workers" in err and "fleet-8" in err
    assert "--workers" in exits_2(["ledger", "golden", "--workers", "2"],
                                  capsys)

    pools = {}

    def fake_run_perf(name, workers=None):
        pools[name] = workers
        return {"events": 1}

    monkeypatch.setattr(repro.perf, "run_perf", fake_run_perf)
    assert main(["ledger", "perf", "--row", "fleet-8", "--row", "fleetd-64",
                 "--workers", "2", "--regen",
                 "--file", str(tmp_path / "ledger.json")]) == 0
    assert pools == {"fleet-8": None, "fleetd-64": 2}
