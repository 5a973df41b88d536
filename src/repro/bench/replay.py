"""Figures 12, 13 and 14: trickle reintegration under trace replay.

The paper's central experiment: replay the four segments on a
write-disconnected client over four networks, for two aging windows
(A = 300, 600 s) and two think thresholds (lambda = 1, 10 s), with a
10-minute warming period.  The headline result is *insulation*:
"Bandwidth varies over three orders of magnitude, yet elapsed time
remains almost unchanged" — on average only ~2% slower at 9.6 Kb/s
than at 10 Mb/s, worst case 11%.

Figure 14's companion table accounts for where update data went at
each bandwidth: still in the CML, shipped over the wire, or cancelled
by log optimizations.  Its shape: as bandwidth falls, less data is
shipped, more remains in the CML, and optimizations save slightly
more (records live longer in the log).
"""

from dataclasses import replace
from itertools import product

from repro.bench.results import Table
from repro.net import ETHERNET, ISDN, MODEM, WAVELAN
from repro.spec.catalog import get
from repro.spec.compile import run_spec
from repro.spec.model import NetworkSpec

NETWORKS = (ETHERNET, WAVELAN, ISDN, MODEM)
SEGMENTS = ("purcell", "holst", "messiaen", "concord")
AGING_WINDOWS = (300.0, 600.0)
THINK_THRESHOLDS = (1.0, 10.0)
#: Figure 12's 10-minute warming period, the ``replay`` spec's.
WARM_SECONDS = get("replay").params_dict()["warm_seconds"]


def run_replay_cell(segment, network, aging_window, think_threshold):
    """Run one cell of the Figure 12 grid: the ``replay`` spec with
    the cell's segment, network, A and lambda; the replay family's
    summary."""
    base = get("replay")
    return run_spec(replace(
        base.with_params(segment=segment, think_threshold=think_threshold),
        network=NetworkSpec(profile=network.name),
        venus=dict(base.venus_dict(), aging_window=aging_window))).summary


#: The facts each grid cell keeps of its summary.
CELL_FACTS = ("elapsed", "begin_cml_bytes", "end_cml_bytes",
              "shipped_bytes", "optimized_bytes")


def cell_key(think, window, segment, network):
    """A grid cell's key: ``"lambda/A/segment/Network"``."""
    return "%g/%g/%s/%s" % (think, window, segment, network)


def run_replay_grid(segments=SEGMENTS, networks=NETWORKS,
                    aging_windows=AGING_WINDOWS,
                    think_thresholds=THINK_THRESHOLDS):
    """The 2x2x4x4 grid: ``{cell_key: facts}``, each cell's
    :data:`CELL_FACTS`, each run in a fresh simulated testbed."""
    grid = {}
    for think, window, name, network in product(
            think_thresholds, aging_windows, segments, networks):
        cell = run_replay_cell(name, network, window, think)
        grid[cell_key(think, window, name, network.name)] = {
            key: cell[key] for key in CELL_FACTS}
    return grid


def slowdown_summary(cells):
    """Modem-vs-Ethernet slowdown of elapsed time over the grid's
    (lambda, A, segment) triples: ``{"mean": .., "worst": ..}`` (the
    paper's ~2 % and 11 %)."""
    ratios = []
    for think, window, name in product(THINK_THRESHOLDS, AGING_WINDOWS,
                                       SEGMENTS):
        ethernet, modem = (cells.get(cell_key(think, window, name, network))
                           for network in ("Ethernet", "Modem"))
        if ethernet and modem:
            ratios.append(modem["elapsed"] / ethernet["elapsed"])
    return {"mean": sum(ratios) / len(ratios) - 1.0,
            "worst": max(ratios) - 1.0}


def facts(fast):
    """The full grid (``@fast``: purcell on Ethernet and the modem at
    lambda = 1 s, A = 600 s), and its modem-vs-Ethernet slowdown."""
    cells = run_replay_grid(("purcell",), (ETHERNET, MODEM), (600.0,),
                            (1.0,)) if fast else run_replay_grid()
    return {"cells": cells, "slowdown": slowdown_summary(cells)}


def tables(facts):
    """Figure 12: an elapsed-time table per (lambda, A) that ran;
    Figure 13: the slowdown; Figure 14: the CML accounting at
    lambda = 1 s, A = 600 s."""
    cells = facts["cells"]
    tables = []
    for think, window in product(THINK_THRESHOLDS, AGING_WINDOWS):
        table = Table(
            "Figure 12 (lambda = %g s, A = %g s): elapsed seconds"
            % (think, window),
            ["Segment"] + ["%s %s" % (n.name, _rate(n)) for n in NETWORKS])
        for name in SEGMENTS:
            row = [cells.get(cell_key(think, window, name, network.name))
                   for network in NETWORKS]
            if any(row):
                table.add(name.capitalize(), *(
                    "%.0f" % cell["elapsed"] if cell else "-"
                    for cell in row))
        if table.rows:
            tables.append(table)
    slowdown = Table("Figure 13: modem vs Ethernet elapsed time over the "
                     "grid (paper: ~2% mean, 11% worst)",
                     ["Slowdown", "Percent"])
    for name in ("mean", "worst"):
        slowdown.add(name, "%.1f%%" % (facts["slowdown"][name] * 100))
    accounting = Table(
        "Figure 14 (lambda = 1 s, A = 600 s): data generated during "
        "replay (KB)",
        ["Segment", "Network", "Begin CML", "End CML", "Shipped",
         "Optimized"])
    for name, network in product(SEGMENTS, NETWORKS):
        cell = cells.get(cell_key(1.0, 600.0, name, network.name))
        if cell:
            accounting.add(name.capitalize(), network.name, *(
                "%.0f" % (cell[key] / 1024.0) for key in CELL_FACTS[1:]))
    return tables + [slowdown, accounting]


def _rate(profile):
    if profile.bandwidth_bps >= 1e6:
        return "%g Mb/s" % (profile.bandwidth_bps / 1e6)
    return "%g Kb/s" % (profile.bandwidth_bps / 1e3)
