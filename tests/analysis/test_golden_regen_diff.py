"""``repro ledger golden --regen`` must say exactly which pins it moved.

A re-pin is a reviewed event: the regen output names every changed,
added and removed leaf as ``row.field: committed → live``, the same
lines a failing check prints, so the fixture diff never has to be read
by hand.  A regen of some rows keeps every other row.
"""

import json
import os
import shutil

from repro.analysis import ledger
from repro.cli import main
from tests.conftest import exits_2

FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir, "golden",
                       "timelines.json")


def entry(sha_char, events):
    return {"sha256": sha_char * 64, "events": events}


def test_diff_names_every_kind_of_change():
    old = {"obs:a": entry("1", 10), "obs:b": entry("2", 20),
           "obs:gone": entry("3", 30)}
    new = {"obs:a": entry("1", 10), "obs:b": entry("4", 25),
           "obs:new": entry("5", 5)}
    assert ledger.diff(old, new) == [
        "obs:b.events: 20 → 25",
        "obs:b.sha256: %s → %s" % ("2" * 64, "4" * 64),
        "obs:gone.events: 30 → (absent)",
        "obs:gone.sha256: %s → (absent)" % ("3" * 64),
        "obs:new.events: (absent) → 5",
        "obs:new.sha256: (absent) → %s" % ("5" * 64),
    ]


def test_unchanged_tables_diff_to_nothing():
    table = {"obs:a": entry("1", 10)}
    assert ledger.diff(table, dict(table)) == []


def test_regen_prints_the_moved_pins(tmp_path, capsys):
    fixture_path = str(tmp_path / "timelines.json")
    regen = ["ledger", "golden", "--regen", "--file", fixture_path,
             "--row", "trickle"]
    # First regen: no previous file, every leaf is new.
    assert main(regen) == 0
    stdout = capsys.readouterr().out
    assert "trickle.events: 58\n" in stdout
    assert "2 field(s) moved:" in stdout
    assert "trickle.events: (absent) → 58" in stdout

    # Tamper the stored digest; the next regen reports old -> new.
    rows = ledger.read(fixture_path)
    stale = "0" * 64
    rows["trickle"]["sha256"] = stale
    ledger.write(rows, fixture_path)
    assert main(regen) == 0
    stdout = capsys.readouterr().out
    assert "1 field(s) moved:" in stdout
    assert "trickle.sha256: %s → " % stale in stdout

    # A no-op regen says so.
    assert main(regen) == 0
    assert "no fields moved" in capsys.readouterr().out


def committed_copy(tmp_path, edit=None):
    path = tmp_path / "timelines.json"
    shutil.copy(FIXTURE, path)
    if edit:
        rows = ledger.read(str(path))
        edit(rows)
        ledger.write(rows, str(path))
    return str(path)


def test_regen_of_one_row_keeps_every_other_row(tmp_path, capsys):
    """Re-pinning ``trickle`` rewrites that row alone: the other ten
    pins survive byte for byte (it once wrote a file of one row)."""
    def tamper(rows):
        rows["trickle"]["sha256"] = "0" * 64
    path = committed_copy(tmp_path, tamper)
    assert main(["ledger", "golden", "--row", "trickle", "--regen",
                 "--file", path]) == 0
    assert "1 field(s) moved:" in capsys.readouterr().out
    with open(path) as fresh, open(FIXTURE) as committed:
        assert fresh.read() == committed.read()


def test_a_row_the_table_no_longer_names_is_a_difference(tmp_path, capsys):
    def add(rows):
        rows["obs:gone"] = entry("3", 30)
    path = committed_copy(tmp_path, add)
    check = ["ledger", "golden", "--row", "trickle", "--file", path]
    assert main(check) == 1
    assert "  obs:gone.events: 30 → (absent)" in capsys.readouterr().out
    assert main(check + ["--regen"]) == 0
    assert "obs:gone" not in ledger.read(path)
    assert main(check) == 0


def test_usage_errors_exit_2_and_write_nothing(tmp_path, capsys):
    path = committed_copy(tmp_path)
    with open(path) as fh:
        before = fh.read()
    err = exits_2(["ledger", "golden", "--row", "nope"], capsys)
    assert "unknown row 'nope'" in err and "trickle" in err
    err = exits_2(["ledger", "golden", "--check", "--regen", "--file", path],
                  capsys)
    assert "unrecognized arguments: --check" in err
    assert "--workers" in exits_2(["ledger", "golden", "--workers", "2"],
                                  capsys)
    assert "no ledger at" in exits_2(
        ["ledger", "golden", "--file", str(tmp_path / "missing.json")],
        capsys)
    (tmp_path / "old.json").write_text(json.dumps(
        {"schema": "repro.golden/1", "digests": {}}))
    assert "schema 'repro.golden/1'" in exits_2(
        ["ledger", "golden", "--regen", "--file",
         str(tmp_path / "old.json")], capsys)
    with open(path) as fh:
        assert fh.read() == before
