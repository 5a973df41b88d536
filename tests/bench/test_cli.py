"""The command-line interface."""

import pytest

from repro.bench import FIGURES, replay
from repro.cli import build_parser, main
from tests.conftest import exits_2

FIGURE_NAMES = ("transport", "aging", "patience", "validation", "fleet",
                "compressibility", "segments", "replay", "ablations")


def test_parser_knows_all_subcommands():
    parser = build_parser()
    for name in FIGURE_NAMES:
        args = parser.parse_args(["figure", name])
        assert (args.command, args.name) == ("figure", name)
        assert callable(args.fn)
    assert tuple(FIGURES) == FIGURE_NAMES       # the parser's choices
    for argv in (["run", "smoke"], ["ledger", "golden"], ["lint"],
                 ["spec", "list"], ["ckpt", "info", "--out", "x"]):
        args = parser.parse_args(argv)
        assert args.command == argv[0] and callable(args.fn)


def test_cli_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_the_top_level_verbs(capsys):
    assert "(choose from %s)" % ", ".join(map(repr, (
        "figure", "run", "ledger", "lint", "spec", "ckpt"))) \
        in exits_2(["nope"], capsys)


@pytest.mark.parametrize("verb", ["obs", "faults", "fleetd", "golden",
                                  "perf", "check-determinism",
                                  "trace-export"]
                         + list(FIGURE_NAMES))
def test_replaced_verbs_are_unknown_commands(verb, capsys):
    """``repro run``, ``repro ledger`` and ``repro figure`` replaced
    them (every ``ledger golden`` check is the determinism probe); no
    alias verbs survive (``spec run`` and ``ckpt run`` are
    pinned gone next to their siblings' tests).  ``trace-export`` went
    with nothing in its place: a segment is a pure function of its
    name, so any trace is regenerated rather than read back."""
    assert "invalid choice: %r" % verb in exits_2([verb], capsys)


def test_unknown_figure_lists_the_figures(capsys):
    err = exits_2(["figure", "nope"], capsys)
    assert "invalid choice: 'nope'" in err and "replay" in err


def test_patience_command_runs(capsys):
    assert main(["figure", "patience"]) == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out
    assert "Priority" in out and "Transparent at" in out


def test_segments_command_runs(capsys):
    assert main(["figure", "segments"]) == 0
    out = capsys.readouterr().out
    assert "Figure 11" in out
    assert "Purcell" in out


def test_replay_command_single_cell(capsys, monkeypatch):
    """``REPRO_FAST=1 repro figure replay`` asks for purcell's Ethernet
    and modem cells at lambda = 1 s, A = 600 s, and prints Figures 12
    to 14 of them alone (cells stubbed: the render is under test)."""
    asked = []

    def cell(segment, network, window, think):
        asked.append((segment, network.name, window, think))
        return dict.fromkeys(replay.CELL_FACTS, 1024.0)

    monkeypatch.setattr(replay, "run_replay_cell", cell)
    monkeypatch.setenv("REPRO_FAST", "1")
    assert main(["figure", "replay"]) == 0
    assert asked == [("purcell", "Ethernet", 600.0, 1.0),
                     ("purcell", "Modem", 600.0, 1.0)]
    out = capsys.readouterr().out
    assert "Figure 12" in out and "elapsed" in out and "Figure 13" in out
    assert "Figure 14" in out and "Modem" in out
    assert "Holst" not in out        # only the segment that ran
