"""Figure 11: characteristics of the trace replay segments.

The four 45-minute segments chosen from the compressibility quartiles,
each printed above the paper's published values (:data:`PAPER_VALUES`).
"""

from repro.bench.results import Table
from repro.trace.segments import segment_by_name
from repro.trace.simulator import CmlSimulator

#: The paper's Figure 11 rows: refs, updates, unopt KB, opt KB, compr.
PAPER_VALUES = {
    "purcell": (51_681, 519, 2_864, 2_625, 0.08),
    "holst": (61_019, 596, 3_402, 2_302, 0.32),
    "messiaen": (38_342, 188, 6_996, 2_184, 0.69),
    "concord": (160_397, 1_273, 34_704, 2_247, 0.94),
}

SEGMENT_ORDER = ("purcell", "holst", "messiaen", "concord")


def run_segment_characterization(names=SEGMENT_ORDER):
    """Characterize each segment: ``{name: facts}``."""
    results = {}
    for name in names:
        report = CmlSimulator(aging_window=float("inf")).run(
            segment_by_name(name))
        results[name] = {
            "references": report.references, "updates": report.updates,
            "unopt_kb": report.appended_bytes / 1024.0,
            "opt_kb": report.optimized_cml_bytes / 1024.0,
            "compressibility": report.compressibility}
    return results


def facts(fast):
    """The four segments (purcell alone ``@fast``)."""
    return run_segment_characterization(
        SEGMENT_ORDER[:1] if fast else SEGMENT_ORDER)


def tables(facts, fast=False):
    table = Table(
        "Figure 11: Segments Used in Trace Replay Experiments "
        "(measured vs paper)",
        ["Segment", "References", "Updates", "Unopt CML (KB)",
         "Opt CML (KB)", "Compressibility"])
    for name in SEGMENT_ORDER:
        if name not in facts:
            continue
        row = facts[name]
        table.add(name.capitalize(), row["references"], row["updates"],
                  "%.0f" % row["unopt_kb"], "%.0f" % row["opt_kb"],
                  "%.0f%%" % (row["compressibility"] * 100))
        paper = PAPER_VALUES[name]
        table.add("  (paper)", *paper[:4], "%.0f%%" % (paper[4] * 100))
    return [table]
