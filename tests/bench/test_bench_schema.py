"""``BENCH_perf.json`` is a live ledger of facts, held at zero tolerance.

Every field of every row is a pure function of (row, seed) — events
dispatched, simulated seconds, digests, counts — so the committed file
is re-derived here, not just type-checked: the three cheap rows re-run
in tier-1 and must equal their committed rows exactly (CI's
``repro ledger perf`` does the same for all ten), and the CLI's check
and ``--regen`` are driven against edited copies.
"""

import json
import os

import pytest

from repro.analysis import ledger
from repro.cli import main
from repro.perf import SCENARIOS, run_perf, takes_workers
from tests.conftest import exits_2

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                          "BENCH_perf.json")

ROW_KEYS = {"scenario", "seed", "events", "sim_seconds", "simulators",
            "detail"}


def check_envelope(path):
    with open(path) as fh:
        envelope = json.load(fh)
    assert set(envelope) == {"schema", "rows"}
    assert envelope["schema"] == ledger.SCHEMA
    for name, row in envelope["rows"].items():
        assert set(row) == ROW_KEYS, name
        assert row["scenario"] == name
        assert name in SCENARIOS
        assert row["seed"] == 0
        assert row["events"] > 0
    return envelope["rows"]


def test_committed_bench_envelope():
    check_envelope(BENCH_PATH)


def test_committed_bench_covers_the_fleet_ladder():
    """One row per ``SCENARIOS`` entry, no more; the rows that run a
    shard plan report one simulator per shard."""
    rows = check_envelope(BENCH_PATH)
    assert sorted(rows) == sorted(SCENARIOS)
    assert all(rows[name]["simulators"] >= 2
               for name in SCENARIOS if takes_workers(name))


@pytest.mark.parametrize("name", ["trickle-outage", "transport-sweep",
                                  "fleet-golden"])
def test_live_rows_equal_their_committed_rows(name):
    assert run_perf(name) == ledger.read(BENCH_PATH)[name]


def edited_copy(tmp_path, edit=None):
    rows = ledger.read(BENCH_PATH)
    if edit:
        edit(rows)
    path = str(tmp_path / "ledger.json")
    ledger.write(rows, path)
    return path


CHECK = ["ledger", "perf", "--row", "trickle-outage", "--file"]


def test_check_names_every_edited_field(tmp_path, capsys):
    assert main(CHECK + [edited_copy(tmp_path)]) == 0
    assert "1 row(s) match" in capsys.readouterr().out

    def edit(rows):
        rows["trickle-outage"]["events"] = 2085
        rows["trickle-outage"]["detail"]["outage"]["link_packets_sent"] = 61
    assert main(CHECK + [edited_copy(tmp_path, edit)]) == 1
    out = capsys.readouterr().out
    assert "trickle-outage.events: 2084\n" in out       # progress lines
    assert "2 field(s) differ" in out
    assert "trickle-outage.events: 2085 → 2084" in out
    assert "trickle-outage.detail.outage.link_packets_sent: 61 → 62" in out


def test_check_refuses_a_row_the_ledger_lacks(tmp_path, capsys):
    empty = str(tmp_path / "empty.json")
    ledger.write({}, empty)
    assert "holds no row trickle-outage" in exits_2(CHECK + [empty], capsys)
    assert "missing.json" in exits_2(
        CHECK + [str(tmp_path / "missing.json")], capsys)
    err = exits_2(["ledger", "perf", "--row", "nope"], capsys)
    assert "unknown row 'nope'" in err and "ckpt-fleet-256" in err


def test_live_envelope_matches_the_contract(tmp_path, capsys):
    """What ``--regen`` writes is what the check accepts, and it has
    the committed file's shape."""
    path = str(tmp_path / "fresh.json")
    regen = ["ledger", "perf", "--regen", "--row", "trickle-outage",
             "--file", path]
    assert main(regen) == 0
    out = capsys.readouterr().out
    assert "trickle-outage.events: (absent) → 2084" in out
    assert "wrote " + path in out
    rows = check_envelope(path)
    assert rows == {"trickle-outage":
                    ledger.read(BENCH_PATH)["trickle-outage"]}
    assert main(CHECK + [path]) == 0
    assert main(regen) == 0
    assert "no fields moved" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["perf", "--seed", "1"],
    ["perf", "--no-profile"],
    ["perf", "--top", "5"],
    ["perf", "--json"],
    ["ledger", "perf", "--seed", "1"],
    ["ledger", "perf", "--json"],
    ["ledger", "perf", "--check"],
    ["ledger", "perf", "--scenario", "fleet-8"],
    ["ledger", "perf", "--ledger", "BENCH_perf.json"],
    ["ledger", "golden", "--fixture", "timelines.json"],
    ["ledger", "golden", "--scenario", "trickle"],
    ["run", "fleet-8", "--ckpt", "D", "--resident"],
    ["ckpt", "extend", "--out", "D", "--resident"],
], ids=" ".join)
def test_retired_flags_are_unknown_arguments(argv, capsys, tmp_path,
                                             monkeypatch):
    """An old command line exits 2 and writes nothing: its flag is
    unknown, or (``perf``, now ``ledger perf``) so is its verb."""
    monkeypatch.chdir(tmp_path)
    err = exits_2(argv, capsys)
    assert ("unrecognized arguments" in err
            or "invalid choice: 'perf'" in err)
    assert list(tmp_path.iterdir()) == []
