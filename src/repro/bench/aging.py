"""Figure 4: effect of the aging window on log optimizations.

Five week-long traces run through the trace-driven CML simulator at a
range of aging windows A.  Each point is the ratio of data saved by
optimizations at that A to the savings at A = 4 hours (14400 s).  The
paper's observations: below A = 300 s, effectiveness on some traces
barely reaches 30% while others see nearly 80%; 600 s yields nearly
50% on all traces (hence the chosen default); above-80%-everywhere
needs A near one hour.  Denominator magnitudes: 84 MB ives, 817 MB
concord, 40 MB holst, 152 MB messiaen, 44 MB purcell.
"""

from repro.bench.results import Table
from repro.trace.segments import WEEK_TRACE_SPECS, week_trace_by_name
from repro.trace.simulator import savings_curve

AGING_WINDOWS = (30, 60, 120, 300, 600, 1200, 1800, 3600, 7200, 14400)
REFERENCE_WINDOW = 14400


def run_aging_analysis(windows=AGING_WINDOWS, traces=None):
    """Run the Figure 4 analysis: per trace, the savings at A = 4 h
    (``reference_bytes``) and each window's savings normalized to it."""
    results = {}
    for name in traces or sorted(WEEK_TRACE_SPECS):
        curve = savings_curve(week_trace_by_name(name), windows)
        reference = curve[REFERENCE_WINDOW]
        results[name] = {
            "reference_bytes": reference,
            "normalized": {window: curve[window] / reference if reference
                           else 0.0 for window in windows}}
    return results


def facts(fast):
    """All five traces at ten windows (``@fast``: two traces at four
    windows, the reference among them so every point has its
    denominator)."""
    if fast:
        return run_aging_analysis((300, 600, 3600, 14400),
                                  ("holst", "purcell"))
    return run_aging_analysis()


def tables(facts):
    shown = sorted(map(int, next(iter(facts.values()))["normalized"]))
    table = Table(
        "Figure 4: Effect of Aging on Optimizations "
        "(savings normalized to A = 4 h)",
        ["Trace", "Savings@4h"] + ["A=%ds" % w for w in shown])
    for name in sorted(facts):
        trace = facts[name]
        table.add(name, "%.0f MB" % (trace["reference_bytes"] / 1e6),
                  *["%.2f" % trace["normalized"][str(w)] for w in shown])
    return [table]
