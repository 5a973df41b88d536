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
    the cell's segment, network, A and lambda.  Returns its facts: the
    replay family's summary plus the cell's ``segment``, ``network``
    and ``aging_window``."""
    base = get("replay")
    spec = replace(
        base.with_params(segment=segment, think_threshold=think_threshold),
        network=NetworkSpec(profile=network.name),
        venus=dict(base.venus_dict(), aging_window=aging_window))
    return dict(run_spec(spec).summary, segment=segment,
                network=network.name, aging_window=aging_window)


def run_replay_grid(segments=SEGMENTS, networks=NETWORKS,
                    aging_windows=AGING_WINDOWS,
                    think_thresholds=THINK_THRESHOLDS):
    """The full 2x2x4x4 grid; returns one facts dict per cell.

    Each cell runs in a fresh simulated testbed, so cells are
    independent.
    """
    return [run_replay_cell(name, network, window, think)
            for think in think_thresholds
            for window in aging_windows
            for name in segments
            for network in networks]


def elapsed_tables(cells):
    """Figure 12 style: one table per (lambda, A) combination."""
    tables = []
    combos = sorted({(c["think_threshold"], c["aging_window"])
                     for c in cells})
    for think, window in combos:
        table = Table(
            "Figure 12 (lambda = %g s, A = %g s): elapsed seconds"
            % (think, window),
            ["Segment"] + ["%s %s" % (n.name, _rate(n)) for n in NETWORKS])
        for name in SEGMENTS:
            row = [name.capitalize()]
            for network in NETWORKS:
                match = _cells(cells, think, window, name, network.name)
                row.append("%.0f" % match[0]["elapsed"] if match else "-")
            if row.count("-") < len(NETWORKS):     # the segment ran
                table.add(*row)
        tables.append(table)
    return tables


def cml_data_table(cells, think=1.0, window=600.0):
    """Figure 14 style: CML accounting for one (lambda, A) combination."""
    table = Table(
        "Figure 14 (lambda = %g s, A = %g s): data generated during "
        "replay (KB)" % (think, window),
        ["Segment", "Network", "Begin CML", "End CML", "Shipped",
         "Optimized"])
    for name in SEGMENTS:
        for network in NETWORKS:
            match = _cells(cells, think, window, name, network.name)
            if match:
                table.add(name.capitalize(), network.name, *(
                    "%.0f" % (match[0][key] / 1024.0) for key in (
                        "begin_cml_bytes", "end_cml_bytes", "shipped_bytes",
                        "optimized_bytes")))
    return table


def slowdown_summary(cells):
    """Modem-vs-Ethernet slowdown stats across the grid (the ~2% claim)."""
    ratios = []
    for think in THINK_THRESHOLDS:
        for window in AGING_WINDOWS:
            for name in SEGMENTS:
                by_net = {c["network"]: c["elapsed"]
                          for c in _cells(cells, think, window, name)}
                if "Ethernet" in by_net and "Modem" in by_net \
                        and by_net["Ethernet"]:
                    ratios.append(by_net["Modem"] / by_net["Ethernet"])
    if not ratios:
        return 0.0, 0.0
    mean = sum(ratios) / len(ratios)
    worst = max(ratios)
    return mean - 1.0, worst - 1.0


def _cells(cells, think, window, segment, network=None):
    """The cells of one (lambda, A, segment[, network]) coordinate."""
    return [c for c in cells
            if c["think_threshold"] == think and c["aging_window"] == window
            and c["segment"] == segment
            and network in (None, c["network"])]


def _rate(profile):
    if profile.bandwidth_bps >= 1e6:
        return "%g Mb/s" % (profile.bandwidth_bps / 1e6)
    return "%g Kb/s" % (profile.bandwidth_bps / 1e3)
