"""Figure 7: patience threshold versus hoard priority.

tau(P) = alpha + beta * e**(gamma P) is converted into "the size of the
largest file that can be fetched in that time at a given bandwidth"
(e.g. 60 s at 64 Kb/s is 480 KB).  Superimposed on the curves are
files of various sizes hoarded at priorities 100, 500, and 900; the
caption's classification:

* at 9.6 Kb/s only the priority-900 files and the 1 KB file at
  priority 500 are below tau;
* at 64 Kb/s the 1 MB file at priority 500 is also below;
* at 2 Mb/s everything except the 4 MB and 8 MB files at priority 100
  is below.

Also reproduced: section 4.4's motivating service-time example — a
1 MB cache miss takes a few seconds at 10 Mb/s but nearly 20 minutes
at 9.6 Kb/s.
"""

from dataclasses import dataclass

from repro.bench.results import Table, fmt_bytes
from repro.core.patience import PatienceModel

KB = 1024
MB = 1024 * 1024

CURVE_BANDWIDTHS = (9_600.0, 64_000.0, 2_000_000.0)

#: The file points of Figure 7: (priority, size).
FILE_POINTS = (
    (100, 1 * MB), (100, 4 * MB), (100, 8 * MB),
    (500, 1 * KB), (500, 1 * MB),
    (900, 1 * MB), (900, 8 * MB),
)


@dataclass
class PatiencePoint:
    priority: int
    size: int
    below: dict      # bandwidth -> bool


def run_patience_analysis(model=None):
    """Classify the Figure 7 file points under each bandwidth."""
    model = model or PatienceModel()
    points = []
    for priority, size in FILE_POINTS:
        below = {bw: size <= model.max_file_bytes(priority, bw)
                 for bw in CURVE_BANDWIDTHS}
        points.append(PatiencePoint(priority=priority, size=size,
                                    below=below))
    return model, points


def curve_table(model=None, priorities=None):
    model = model or PatienceModel()
    if priorities is None:
        priorities = range(0, 1001, 100)
    table = Table(
        "Figure 7: Patience Threshold (largest transparently fetched "
        "file, by priority and bandwidth)",
        ["Priority", "tau (s)"] + ["%g Kb/s" % (bw / 1000)
                                   for bw in CURVE_BANDWIDTHS])
    for priority in priorities:
        row = [str(priority), "%.1f" % model.threshold(priority)]
        for bw in CURVE_BANDWIDTHS:
            size = model.max_file_bytes(priority, bw)
            row.append("%.0f KB" % (size / KB) if size < MB
                       else "%.1f MB" % (size / MB))
        table.add(*row)
    return table


def points_table(points):
    """Figure 7's file points: the bandwidths each is transparent at."""
    table = Table("Figure 7: file points below the patience threshold",
                  ["Priority", "Size", "Transparent at"])
    for point in points:
        table.add(point.priority, fmt_bytes(point.size), ", ".join(
            "%g Kb/s" % (bw / 1000)
            for bw, ok in sorted(point.below.items()) if ok) or "-")
    return table


def miss_service_times(size=1 * MB):
    """Section 4.4's example: miss service time by bandwidth."""
    return {
        "10 Mb/s": size * 8 / 10e6,
        "9.6 Kb/s": size * 8 / 9600.0,
    }
