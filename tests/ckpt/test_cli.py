"""``repro run <spec> --ckpt`` and ``repro ckpt extend|verify|info`` end
to end, on a tiny fleet so the whole flow fits in a couple of seconds.
"""

import json
import os

import pytest

from repro.ckpt import CkptOptions, run_checkpointed
from repro.cli import build_parser, main
from tests.ckpt.test_runner import tree_bytes
from tests.conftest import exits_2

RUN = ["run", "fleet-8", "--days", "1", "--day-seconds", "600"]


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """One checkpoint taken through run -> extend on disk."""
    root = str(tmp_path_factory.mktemp("ckpt-cli") / "store")
    assert main(RUN + ["--ckpt", root]) == 0
    assert main(["ckpt", "extend", "--out", root, "--days", "+1"]) == 0
    return root


def test_run_then_extend_leaves_a_two_day_manifest(flow):
    with open(os.path.join(flow, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["days"] == 2
    assert manifest["scenario"] == "fleet-8"
    assert manifest["seed"] == 0         # no --seed: the canonical streams
    assert len(manifest["shards"]) == 2


def test_run_prints_fleet_report_and_location(flow, capsys, tmp_path):
    out = str(tmp_path / "fresh")
    main(RUN + ["--ckpt", out])
    stdout = capsys.readouterr().out
    assert "fleetd fleet-8" in stdout
    assert "checkpoint: 1 day(s)" in stdout


def test_run_under_repro_fast_writes_what_the_library_writes(
        tmp_path, monkeypatch):
    """``--ckpt`` is ``run_checkpointed`` and nothing else: the store
    is byte-identical to a direct call with the same arguments
    (REPRO_FAST's day unit is an eighth of a day, 10,800 s)."""
    monkeypatch.setenv("REPRO_FAST", "1")
    cli, direct = str(tmp_path / "cli"), str(tmp_path / "direct")
    assert main(["run", "fleet-8", "--ckpt", cli]) == 0
    run_checkpointed("fleet-8", seed=0, days=1, out=direct,
                     options=CkptOptions(day_seconds=10_800.0))
    assert tree_bytes(cli) == tree_bytes(direct)


def test_verify_passes_on_the_good_store(flow, capsys):
    assert main(["ckpt", "verify", "--out", flow, "--replay-day", "0",
                 "--replay-shard", "0"]) == 0
    assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize("flag, pin", [
    ("--replay-shard", "99"), ("--replay-day", "7"), ("--replay-day", "-1"),
])
def test_verify_refuses_a_replay_pin_outside_the_store(flow, capsys,
                                                        flag, pin):
    """Two shards and two days: shard 99 and day 7 do not exist, and
    day -1 would index the day list from its end."""
    err = exits_2(["ckpt", "verify", "--out", flow, flag, pin], capsys)
    assert err.startswith("%s %s is out of range" % (flag, pin))
    assert "Traceback" not in err


@pytest.mark.parametrize("pins", [["--replay-day", "0"],
                                  ["--replay-shard", "0"],
                                  ["--replay-day", "0", "--replay-shard", "0"]])
def test_verify_refuses_a_replay_pin_without_a_replay(flow, capsys, pins):
    """``--no-replay`` replays nothing, so a pin of the replayed sample
    is refused (exit 2, naming the flag), never ignored."""
    err = exits_2(["ckpt", "verify", "--out", flow, "--no-replay"] + pins,
                  capsys)
    assert err.startswith(pins[0] + ": ")
    assert "--no-replay" in err and "Traceback" not in err


def test_verify_exits_nonzero_on_corruption(flow, tmp_path, capsys):
    import shutil

    clone = str(tmp_path / "bad")
    shutil.copytree(flow, clone)
    path = os.path.join(clone, "shards", "s00", "timeline.txt")
    os.truncate(path, os.path.getsize(path) - 20)
    assert main(["ckpt", "verify", "--out", clone, "--no-replay"]) == 1
    assert "CORRUPT" in capsys.readouterr().out


def test_info_summarizes_the_manifest(flow, capsys):
    assert main(["ckpt", "info", "--out", flow]) == 0
    stdout = capsys.readouterr().out
    assert "scenario       fleet-8" in stdout
    assert "shard 00" in stdout and "shard 01" in stdout


def test_info_on_a_missing_store_exits_with_a_message(tmp_path):
    with pytest.raises(SystemExit, match="manifest"):
        main(["ckpt", "info", "--out", str(tmp_path / "void")])


def test_run_refuses_an_existing_store_via_exit(flow):
    with pytest.raises(SystemExit, match="already exists"):
        main(RUN + ["--ckpt", flow])


def test_extend_refuses_a_missing_store_via_exit(tmp_path):
    with pytest.raises(SystemExit, match="manifest"):
        main(["ckpt", "extend", "--out", str(tmp_path / "void")])


def test_added_days_parses_plus_notation(capsys):
    def days(text):
        return build_parser().parse_args(
            ["ckpt", "extend", "--out", "ck", "--days", text]).days
    assert days("+3") == 3
    assert days("2") == 2
    with pytest.raises(SystemExit):
        days("tomorrow")
    assert "invalid int value: 'tomorrow'" in capsys.readouterr().err


def test_top_level_dispatcher_routes_ckpt(tmp_path, capsys):
    """``ckpt`` is an ordinary nested subparser: it needs a subcommand,
    and ``run`` is no longer one of them."""
    exits_2(["ckpt"], capsys)
    assert "invalid choice: 'run'" in exits_2(
        ["ckpt", "run", "--scenario", "fleet-8", "--out",
         str(tmp_path / "via-repro")], capsys)
    assert not os.listdir(tmp_path)
