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

from dataclasses import dataclass

from repro.bench.common import make_testbed, populate_volume, warm_cache
from repro.bench.results import Table
from repro.net import ETHERNET, ISDN, MODEM, WAVELAN
from repro.trace.replay import TraceReplayer
from repro.trace.segments import segment_by_name
from repro.venus import VenusConfig

NETWORKS = (ETHERNET, WAVELAN, ISDN, MODEM)
SEGMENTS = ("purcell", "holst", "messiaen", "concord")
AGING_WINDOWS = (300.0, 600.0)
THINK_THRESHOLDS = (1.0, 10.0)
WARM_SECONDS = 600.0


@dataclass
class ReplayCell:
    segment: str
    network: str
    aging_window: float
    think_threshold: float
    elapsed: float
    begin_cml_kb: float
    end_cml_kb: float
    shipped_kb: float
    optimized_kb: float
    misses: int


def run_replay_cell(segment, network, aging_window, think_threshold,
                    venus_config=None):
    """Run one cell of the Figure 12 grid; returns a ReplayCell."""
    if isinstance(segment, str):
        segment = segment_by_name(segment)
    config = venus_config or VenusConfig(
        aging_window=aging_window,
        force_write_disconnected=True)
    config.aging_window = aging_window
    testbed = make_testbed(network, venus_config=config)
    volume = populate_volume(testbed.server, "/coda/usr/trace",
                             segment.tree)
    warm_cache(testbed.venus, testbed.server, volume)
    replayer = TraceReplayer(testbed.venus,
                             think_threshold=think_threshold,
                             warm_seconds=WARM_SECONDS)

    def scenario():
        connected = yield from testbed.venus.connect()
        assert connected, "client failed to reach the server"
        report = yield from replayer.run(segment)
        return report

    report = testbed.run(scenario())
    return ReplayCell(
        segment=segment.name, network=network.name,
        aging_window=aging_window, think_threshold=think_threshold,
        elapsed=report.elapsed,
        begin_cml_kb=report.begin_cml_bytes / 1024.0,
        end_cml_kb=report.end_cml_bytes / 1024.0,
        shipped_kb=report.shipped_bytes / 1024.0,
        optimized_kb=report.optimized_bytes / 1024.0,
        misses=report.misses)


def run_replay_grid(segments=SEGMENTS, networks=NETWORKS,
                    aging_windows=AGING_WINDOWS,
                    think_thresholds=THINK_THRESHOLDS):
    """The full 2x2x4x4 grid; returns a list of ReplayCell.

    Segments are generated once and reused; each cell runs in a fresh
    simulated testbed, so cells are independent.
    """
    cells = []
    cached_segments = {name: segment_by_name(name) for name in segments}
    for think in think_thresholds:
        for window in aging_windows:
            for name in segments:
                for network in networks:
                    cells.append(run_replay_cell(
                        cached_segments[name], network, window, think))
    return cells


def elapsed_tables(cells):
    """Figure 12 style: one table per (lambda, A) combination."""
    tables = []
    combos = sorted({(c.think_threshold, c.aging_window) for c in cells})
    for think, window in combos:
        table = Table(
            "Figure 12 (lambda = %g s, A = %g s): elapsed seconds"
            % (think, window),
            ["Segment"] + ["%s %s" % (n.name, _rate(n)) for n in NETWORKS])
        for name in SEGMENTS:
            row = [name.capitalize()]
            for network in NETWORKS:
                match = [c for c in cells
                         if c.segment == name
                         and c.network == network.name
                         and c.think_threshold == think
                         and c.aging_window == window]
                row.append("%.0f" % match[0].elapsed if match else "-")
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
            match = [c for c in cells
                     if c.segment == name and c.network == network.name
                     and c.think_threshold == think
                     and c.aging_window == window]
            if match:
                cell = match[0]
                table.add(name.capitalize(), network.name,
                          "%.0f" % cell.begin_cml_kb,
                          "%.0f" % cell.end_cml_kb,
                          "%.0f" % cell.shipped_kb,
                          "%.0f" % cell.optimized_kb)
    return table


def slowdown_summary(cells):
    """Modem-vs-Ethernet slowdown stats across the grid (the ~2% claim)."""
    ratios = []
    for think in THINK_THRESHOLDS:
        for window in AGING_WINDOWS:
            for name in SEGMENTS:
                by_net = {c.network: c.elapsed for c in cells
                          if c.segment == name
                          and c.think_threshold == think
                          and c.aging_window == window}
                if "Ethernet" in by_net and "Modem" in by_net \
                        and by_net["Ethernet"]:
                    ratios.append(by_net["Modem"] / by_net["Ethernet"])
    if not ratios:
        return 0.0, 0.0
    mean = sum(ratios) / len(ratios)
    worst = max(ratios)
    return mean - 1.0, worst - 1.0


def _rate(profile):
    if profile.bandwidth_bps >= 1e6:
        return "%g Mb/s" % (profile.bandwidth_bps / 1e6)
    return "%g Kb/s" % (profile.bandwidth_bps / 1e3)
