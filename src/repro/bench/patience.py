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

from repro.bench.results import Table, fmt_bytes
from repro.core.patience import PatienceModel

KB = 1024
MB = 1024 * 1024

CURVE_BANDWIDTHS = (9_600.0, 64_000.0, 2_000_000.0)
CURVE_PRIORITIES = range(0, 1001, 100)

#: The file points of Figure 7: (priority, size).
FILE_POINTS = (
    (100, 1 * MB), (100, 4 * MB), (100, 8 * MB),
    (500, 1 * KB), (500, 1 * MB),
    (900, 1 * MB), (900, 8 * MB),
)

#: Section 4.4's example: a 1 MB miss at these bandwidths (b/s).
MISS_BANDWIDTHS = {"10 Mb/s": 10e6, "9.6 Kb/s": 9_600.0}


def facts(fast):
    """The model's curve, its classification of the file points, and
    section 4.4's 1 MB miss times; analytic, so ``@fast`` is the same.

    Bandwidths key as b/s, file points as ``priority/bytes``.
    """
    model = PatienceModel()
    return {
        "curve": {priority: {
            "tau_seconds": model.threshold(priority),
            "max_bytes": {"%d" % bw: model.max_file_bytes(priority, bw)
                          for bw in CURVE_BANDWIDTHS}}
            for priority in CURVE_PRIORITIES},
        "points": {"%d/%d" % (priority, size): {
            "%d" % bw: size <= model.max_file_bytes(priority, bw)
            for bw in CURVE_BANDWIDTHS}
            for priority, size in FILE_POINTS},
        "miss_seconds": {name: MB * 8 / bw
                         for name, bw in MISS_BANDWIDTHS.items()},
    }


def _kbps(bw):
    return "%g Kb/s" % (bw / 1000)


def tables(facts, fast=False):
    curve = Table(
        "Figure 7: Patience Threshold (largest transparently fetched "
        "file, by priority and bandwidth)",
        ["Priority", "tau (s)"] + [_kbps(bw) for bw in CURVE_BANDWIDTHS])
    for priority in CURVE_PRIORITIES:
        row = facts["curve"][str(priority)]
        sizes = [row["max_bytes"]["%d" % bw] for bw in CURVE_BANDWIDTHS]
        curve.add(priority, "%.1f" % row["tau_seconds"], *(
            "%.0f KB" % (size / KB) if size < MB else "%.1f MB" % (size / MB)
            for size in sizes))
    points = Table("Figure 7: file points below the patience threshold",
                   ["Priority", "Size", "Transparent at"])
    for priority, size in FILE_POINTS:
        below = facts["points"]["%d/%d" % (priority, size)]
        points.add(priority, fmt_bytes(size), ", ".join(
            _kbps(bw) for bw in CURVE_BANDWIDTHS if below["%d" % bw]) or "-")
    miss = Table("Section 4.4: service time of a 1 MB cache miss",
                 ["Bandwidth", "Seconds"])
    for name in MISS_BANDWIDTHS:
        miss.add(name, "%.1f" % facts["miss_seconds"][name])
    return [curve, points, miss]
