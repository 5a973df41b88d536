"""``repro golden --regen`` must say exactly which pins it moved.

A re-pin is a reviewed event: the regen output names every changed
scenario with its old and new digest (and event counts), plus added
and removed pins, so the fixture diff never has to be read by hand.
"""

import json

from repro.analysis.golden import diff_digests, load_fixture
from repro.cli import main


def entry(sha_char, events):
    return {"sha256": sha_char * 64, "events": events}


def test_diff_digests_names_every_kind_of_change():
    old = {"obs:a": entry("1", 10), "obs:b": entry("2", 20),
           "obs:gone": entry("3", 30)}
    new = {"obs:a": entry("1", 10), "obs:b": entry("4", 25),
           "obs:new": entry("5", 5)}
    lines = diff_digests(old, new)
    assert len(lines) == 3
    changed, = [line for line in lines if line.startswith("changed")]
    assert "obs:b" in changed
    assert "2" * 16 in changed and "4" * 16 in changed
    assert "(20 -> 25 events)" in changed
    added, = [line for line in lines if line.startswith("added")]
    assert "obs:new" in added and "5" * 16 in added
    removed, = [line for line in lines if line.startswith("removed")]
    assert "obs:gone" in removed and "3" * 16 in removed


def test_unchanged_tables_diff_to_nothing():
    table = {"obs:a": entry("1", 10)}
    assert diff_digests(table, dict(table)) == []


def test_regen_prints_the_moved_pins(tmp_path, capsys):
    fixture_path = str(tmp_path / "timelines.json")
    # First regen: no previous fixture, every pin is new.
    assert main(["golden", "--regen", "--fixture", fixture_path,
                 "--scenario", "trickle"]) == 0
    stdout = capsys.readouterr().out
    assert "pinned trickle" in stdout
    assert "1 pin(s) moved:" in stdout
    assert "added   trickle" in stdout

    # Tamper the stored digest; the next regen reports old -> new.
    fixture = load_fixture(fixture_path)
    stale = "0" * 64
    fixture["digests"]["trickle"]["sha256"] = stale
    with open(fixture_path, "w") as fh:
        json.dump(fixture, fh)
    assert main(["golden", "--regen", "--fixture", fixture_path,
                 "--scenario", "trickle"]) == 0
    stdout = capsys.readouterr().out
    assert "changed trickle" in stdout
    assert stale[:16] + "…" in stdout

    # A no-op regen says so.
    assert main(["golden", "--regen", "--fixture", fixture_path,
                 "--scenario", "trickle"]) == 0
    assert "no pins moved" in capsys.readouterr().out
