"""The command-line interface."""

import pytest

from repro.cli import build_parser, main
from tests.conftest import exits_2


def test_parser_knows_all_subcommands():
    parser = build_parser()
    for command in ("transport", "aging", "patience", "validation",
                    "fleet", "compressibility", "segments", "replay",
                    "ablations", "trace-export"):
        args = parser.parse_args([command] if command != "trace-export"
                                 else [command, "--out", "x"])
        assert args.command == command
        assert callable(args.fn)


def test_cli_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("verb", ["obs", "faults", "fleetd"])
def test_replaced_verbs_are_unknown_commands(verb, capsys):
    """``repro run`` replaced them; no alias verbs survive (``spec run``
    and ``ckpt run`` are pinned gone next to their siblings' tests)."""
    assert "invalid choice: %r" % verb in exits_2([verb], capsys)


def test_patience_command_runs(capsys):
    assert main(["patience"]) == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out
    assert "priority" in out


def test_segments_command_runs(capsys):
    assert main(["segments"]) == 0
    out = capsys.readouterr().out
    assert "Figure 11" in out
    assert "Purcell" in out


def test_replay_command_single_cell(capsys):
    assert main(["replay", "--segment", "purcell",
                 "--network", "modem"]) == 0
    out = capsys.readouterr().out
    assert "Modem" in out and "elapsed" in out


def test_trace_export_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "seg.trace"
    assert main(["trace-export", "--segment", "purcell",
                 "--out", str(out_file)]) == 0
    from repro.trace.io import read_trace
    segment = read_trace(str(out_file))
    assert segment.name == "purcell"
    assert segment.references > 10_000


def test_trace_export_unknown_segment(tmp_path):
    with pytest.raises(SystemExit):
        main(["trace-export", "--segment", "nosuch",
              "--out", str(tmp_path / "x")])
