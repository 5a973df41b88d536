"""The determinism probe inside ``repro ledger golden``: the comparison
and reference grammar it rests on, and the planted hazards of
:mod:`tests.analysis.planted` run through the golden table's perturbed
children (one row with a set-iteration, one that crashes)."""

import os

import pytest

from repro.analysis import golden, ledger
from repro.analysis.divergence import compare_timelines, resolve_scenario
from repro.cli import main
from tests.conftest import exits_2

DIVERGENT = "mod:tests.analysis.planted:divergent_scenario"
CRASHING = "mod:tests.analysis.planted:crashing_scenario"
FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir, "golden",
                       "timelines.json")
UNPINNED = {"sha256": "0" * 64, "events": 0}


# ---------------------------------------------------------------------------
# compare_timelines unit behaviour


def test_compare_identical():
    lines = ["a", "b", "c"]
    assert compare_timelines(lines, list(lines)) == (None, [], [])


def test_compare_finds_first_mismatch_with_context():
    lines_a = ["e0", "e1", "e2", "e3", "e4"]
    lines_b = ["e0", "e1", "XX", "e3", "e4"]
    index, ctx_a, ctx_b = compare_timelines(lines_a, lines_b, context=1)
    assert index == 2
    assert ctx_a == ["   [1] e1", ">> [2] e2", "   [3] e3"]
    assert ctx_b == ["   [1] e1", ">> [2] XX", "   [3] e3"]


def test_compare_length_mismatch():
    index, ctx_a, ctx_b = compare_timelines(["a", "b"], ["a"], context=1)
    assert index == 1
    assert ">> [1] b" in ctx_a
    assert ">> [1] <end of timeline>" in ctx_b


# ---------------------------------------------------------------------------
# Scenario resolution


def test_resolve_rejects_malformed_specs():
    for spec in ("bogus", "obs:", "mod:justamodule", "weird:x"):
        with pytest.raises(ValueError):
            resolve_scenario(spec)


def test_resolve_mod_spec_runs_callable():
    scenario = resolve_scenario(DIVERGENT)
    from repro.obs import Observatory
    observatory = Observatory()
    scenario(observatory)
    assert len(observatory.trace.events) > 0


# ---------------------------------------------------------------------------
# The planted rows through the golden table's perturbed children


@pytest.fixture
def planted_table(monkeypatch):
    """The golden table plus the planted rows."""
    monkeypatch.setattr(golden, "GOLDEN_SCENARIOS",
                        golden.GOLDEN_SCENARIOS + (DIVERGENT, CRASHING))


def test_planted_set_iteration_is_caught(planted_table, tmp_path, capsys):
    """The hash-ordered row fails the golden check, and the first
    divergent event is located with both children's context (the whole
    emission order scrambles, so divergence shows up at event 0)."""
    path = str(tmp_path / "planted.json")
    ledger.write({DIVERGENT: UNPINNED}, path)
    assert main(["ledger", "golden", "--row", DIVERGENT,
                 "--file", path]) == 1
    out = capsys.readouterr().out
    assert "%s: the perturbed children diverge at event 0" % DIVERGENT in out
    assert "child A (hash seed 1, decoy 0, table order), 12 events:" in out
    assert "child B (hash seed 4242, decoy 7, reverse order), 12 events:" \
        in out
    assert out.count(">> [0] ") == 2
    assert "row(s) match" not in out


def test_regen_refuses_to_pin_a_divergent_row(planted_table, tmp_path,
                                              capsys):
    """Not even the rows the children agree on are written: a stale
    ``trickle`` pin, which a clean regen would fix, stays stale."""
    path = str(tmp_path / "timelines.json")
    rows = ledger.read(FIXTURE)
    rows["trickle"]["sha256"] = "0" * 64
    ledger.write(rows, path)
    with open(path, "rb") as fh:
        before = fh.read()
    assert main(["ledger", "golden", "--regen", "--row", "trickle",
                 "--row", DIVERGENT, "--file", path]) == 1
    out = capsys.readouterr().out
    assert "diverge at event 0" in out
    assert "refused to pin: %s left as it was" % path in out
    with open(path, "rb") as fh:
        assert fh.read() == before


def test_main_exit_codes(planted_table, tmp_path, capsys):
    """A crashing child is a failed check (1) that shows the child's
    stderr, not a usage error; an unknown row is one (2)."""
    path = str(tmp_path / "planted.json")
    ledger.write({CRASHING: UNPINNED}, path)
    assert main(["ledger", "golden", "--row", CRASHING, "--file", path]) == 1
    out = capsys.readouterr().out
    assert "child A (hash seed 1, decoy 0, table order) exited 1:" in out
    assert "RuntimeError: planted crash" in out
    assert "unknown row 'mod:tests.analysis.planted:nope'" in exits_2(
        ["ledger", "golden", "--row", "mod:tests.analysis.planted:nope"],
        capsys)
