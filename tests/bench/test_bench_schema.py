"""``BENCH_perf.json`` is a live ledger of facts, held at zero tolerance.

Every field of every row is a pure function of (row, seed) — events
dispatched, simulated seconds, digests, counts — so the committed file
is re-derived here, not just type-checked: the three cheap rows re-run
in tier-1 and must equal their committed rows exactly (CI's
``repro perf --check`` does the same for all ten), and the CLI's
``--check``/``--regen`` verbs are driven against edited copies.
"""

import json
import os

import pytest

from repro.cli import main
from repro.perf import SCENARIOS, read_ledger, run_perf, takes_workers
from repro.perf.runner import BENCH_SCHEMA
from tests.conftest import exits_2

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                          "BENCH_perf.json")

ROW_KEYS = {"scenario", "seed", "events", "sim_seconds", "simulators",
            "detail"}


def check_envelope(path):
    with open(path) as fh:
        ledger = json.load(fh)
    assert set(ledger) == {"schema", "results"}
    assert ledger["schema"] == BENCH_SCHEMA
    for row in ledger["results"]:
        assert set(row) == ROW_KEYS, row["scenario"]
        assert row["scenario"] in SCENARIOS
        assert row["seed"] == 0
        assert row["events"] > 0
    return ledger["results"]


def test_committed_bench_envelope():
    check_envelope(BENCH_PATH)


def test_committed_bench_covers_the_fleet_ladder():
    """One row per ``SCENARIOS`` entry, no more; the rows that run a
    shard plan report one simulator per shard."""
    rows = read_ledger(BENCH_PATH)
    assert sorted(rows) == sorted(SCENARIOS)
    assert len(rows) == len(check_envelope(BENCH_PATH))
    assert all(rows[name]["simulators"] >= 2
               for name in SCENARIOS if takes_workers(name))


@pytest.mark.parametrize("name", ["trickle-outage", "transport-sweep",
                                  "fleet-golden"])
def test_live_rows_equal_their_committed_rows(name):
    assert run_perf(name).to_dict() == read_ledger(BENCH_PATH)[name]


def edited_copy(tmp_path, edit=None):
    with open(BENCH_PATH) as fh:
        ledger = json.load(fh)
    if edit:
        edit({row["scenario"]: row for row in ledger["results"]})
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(ledger))
    return str(path)


CHECK = ["perf", "--check", "--scenario", "trickle-outage", "--ledger"]


def test_check_names_every_edited_field(tmp_path, capsys):
    assert main(CHECK + [edited_copy(tmp_path)]) == 0
    assert "1 row(s) match" in capsys.readouterr().out

    def edit(rows):
        rows["trickle-outage"]["events"] = 3795
        rows["trickle-outage"]["detail"]["outage"]["link_packets_sent"] = 61
    assert main(CHECK + [edited_copy(tmp_path, edit)]) == 1
    out = capsys.readouterr().out
    assert "2 field(s) differ" in out
    assert "trickle-outage.events: 3795 → 3794" in out
    assert "trickle-outage.detail.outage.link_packets_sent: 61 → 62" in out


def test_check_refuses_a_row_the_ledger_lacks(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"schema": BENCH_SCHEMA, "results": []}))
    assert "holds no row trickle-outage" in exits_2(CHECK + [str(empty)],
                                                    capsys)
    assert "missing.json" in exits_2(
        CHECK + [str(tmp_path / "missing.json")], capsys)
    assert "unknown perf scenario 'nope'" in exits_2(
        ["perf", "--scenario", "nope"], capsys)


def test_live_envelope_matches_the_contract(tmp_path, capsys):
    """What ``--regen`` writes is what ``--check`` accepts, and it has
    the committed file's shape."""
    path = str(tmp_path / "fresh.json")
    regen = ["perf", "--regen", "--scenario", "trickle-outage",
             "--ledger", path]
    assert main(regen) == 0
    out = capsys.readouterr().out
    assert "trickle-outage.events: (absent) → 3794" in out
    assert "wrote " + path in out
    row, = check_envelope(path)
    assert row == read_ledger(BENCH_PATH)["trickle-outage"]
    assert main(CHECK + [path]) == 0
    assert main(regen) == 0
    assert "no fields moved" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["perf", "--seed", "1"],
    ["perf", "--no-profile"],
    ["perf", "--top", "5"],
    ["perf", "--json"],
    ["run", "fleet-8", "--ckpt", "D", "--resident"],
    ["ckpt", "extend", "--out", "D", "--resident"],
], ids=" ".join)
def test_retired_flags_are_unknown_arguments(argv, capsys, tmp_path,
                                             monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert "unrecognized arguments" in exits_2(argv, capsys)
    assert list(tmp_path.iterdir()) == []
