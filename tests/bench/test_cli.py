"""The command-line interface."""

import pytest

from repro.bench import FIGURES, replay
from repro.cli import build_parser, main
from repro.net import MODEM
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
    """``figure replay`` over one network: the Modem cell of purcell."""
    monkeypatch.setattr(replay, "NETWORKS", (MODEM,))
    assert main(["figure", "replay"]) == 0
    out = capsys.readouterr().out
    assert "Figure 12" in out and "elapsed" in out
    assert "Figure 14" in out and "Modem" in out
    assert "Holst" not in out        # only the segment that ran
