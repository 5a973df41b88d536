"""The schedule-divergence detector, probed against the built-in
self-test scenarios (one clean, one with a planted set-iteration)."""

import pytest

from repro.analysis.divergence import (check_determinism,
                                       compare_timelines,
                                       resolve_scenario)
from repro.cli import main

CLEAN = "mod:repro.analysis.selftest:clean_scenario"
DIVERGENT = "mod:repro.analysis.selftest:divergent_scenario"


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
    scenario = resolve_scenario(CLEAN)
    from repro.obs import Observatory
    observatory = Observatory()
    scenario(observatory)
    assert len(observatory.trace.events) > 0


# ---------------------------------------------------------------------------
# End-to-end subprocess probes (the satellite acceptance tests)


def test_clean_scenario_is_deterministic():
    report = check_determinism(CLEAN)
    assert report.identical
    assert report.events_a == report.events_b > 0
    assert report.first_divergence is None
    assert "byte-identical" in report.format()


def test_planted_set_iteration_is_caught():
    """The deliberately hash-ordered scenario diverges, and the first
    divergent event is located (the whole emission order scrambles, so
    divergence shows up at event 0)."""
    report = check_determinism(DIVERGENT)
    assert not report.identical
    assert report.first_divergence == 0
    assert report.context_a and report.context_b
    text = report.format()
    assert "DIVERGENCE at event 0" in text
    assert "run A context" in text and "run B context" in text


def test_main_exit_codes():
    assert main(["check-determinism", "--scenario", CLEAN]) == 0
    assert main(["check-determinism", "--scenario", DIVERGENT]) == 1
