"""Figures 12, 13, 14: trickle reintegration under trace replay.

This is the paper's central table: 2 aging windows x 2 think
thresholds x 4 segments x 4 networks.  The full 64-cell grid runs by
default (a few minutes of real time); REPRO_QUICK=1 runs a
representative 16-cell slice.
"""

import os

import pytest

from repro.bench import replay

#: The Figure 14 tables' unit, and the slack its shape checks allow.
KB = 1024


@pytest.fixture(scope="module")
def grid(fast):
    if fast:
        # One segment, the two extreme networks, one (A, lambda) cell:
        # enough to exercise the whole replay pipeline end to end.
        return replay.run_replay_grid(
            segments=("purcell",),
            networks=(replay.ETHERNET, replay.MODEM),
            aging_windows=(600.0,),
            think_thresholds=(1.0,))
    if os.environ.get("REPRO_QUICK"):
        return replay.run_replay_grid(aging_windows=(600.0,),
                                      think_thresholds=(1.0,))
    return replay.run_replay_grid()


def test_fig12_13_elapsed_insulation(grid, benchmark, fast):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for table in replay.elapsed_tables(grid):
        table.show()
    if fast:
        assert len(grid) == 2
        for cell in grid:
            assert cell["elapsed"] > 0
        return
    mean_slowdown, worst_slowdown = replay.slowdown_summary(grid)
    print("\nModem vs Ethernet slowdown: mean %.1f%%, worst %.1f%% "
          "(paper: ~2%% mean, 11%% worst)"
          % (mean_slowdown * 100, worst_slowdown * 100))

    # "On average, performance is only about 2% slower at 9.6 Kb/s
    # than at 10 Mb/s."  We insist the mean is below 5%.
    assert -0.05 < mean_slowdown < 0.05

    # "Even the worst case ... is only 11% slower."
    assert worst_slowdown < 0.12

    # Elapsed times are in the paper's regime (roughly 900-2200 s),
    # and lambda = 10 s runs are faster than lambda = 1 s runs for the
    # same cell (less think time preserved).
    for cell in grid:
        assert 700 < cell["elapsed"] < 2400, cell
    lambdas = sorted({c["think_threshold"] for c in grid})
    if len(lambdas) == 2:
        lo, hi = lambdas
        for cell in [c for c in grid if c["think_threshold"] == hi]:
            twins = [c for c in grid
                     if c["think_threshold"] == lo
                     and c["segment"] == cell["segment"]
                     and c["network"] == cell["network"]
                     and c["aging_window"] == cell["aging_window"]]
            assert twins and cell["elapsed"] < twins[0]["elapsed"]


def test_fig14_cml_accounting(grid, benchmark, fast):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    think = min(c["think_threshold"] for c in grid)
    window = max(c["aging_window"] for c in grid)
    table = replay.cml_data_table(grid, think=think, window=window)
    table.show()

    cells = [c for c in grid
             if c["think_threshold"] == think and c["aging_window"] == window]
    by = {(c["segment"], c["network"]): c for c in cells}
    segments = sorted({c["segment"] for c in cells}) if fast \
        else replay.SEGMENTS
    for segment in segments:
        ethernet = by[(segment, "Ethernet")]
        modem = by[(segment, "Modem")]
        # "As bandwidth decreases, so does the amount of data shipped"
        assert modem["shipped_bytes"] <= ethernet["shipped_bytes"] + KB, \
            segment
        # "...more data remains in the CML at lower bandwidths."
        assert modem["end_cml_bytes"] >= ethernet["end_cml_bytes"] - KB, \
            segment
        # "Since data spends more time in the CML, there is greater
        # opportunity for optimization."
        assert modem["optimized_bytes"] \
            >= ethernet["optimized_bytes"] - KB, segment
