"""Enforce per-package coverage floors from a coverage.py JSON report.

Usage: python tools/check_package_coverage.py coverage.json

The global ``--cov-fail-under`` gate catches wholesale regressions;
this script stops a PR from funding the global number with easy lines
in one package while another package rots.  Floors are set a few
points below the levels measured when the gate was introduced (tier-1
suite, 2026-08) so routine refactors don't trip them.
"""

import json
import sys

#: Package (directory under src/repro) -> minimum percent covered.
#: "(top)" covers the top-level modules (cli.py, __init__.py, ...).
FLOORS = {
    "(top)": 60.0,
    "analysis": 85.0,   # 93 % of lines from tier-1 by a stdlib trace count
    "bench": 30.0,      # paper-scale facts run in `repro ledger figures`,
                        # not tier-1
    "ckpt": 90.0,
    "core": 85.0,
    "faults": 90.0,
    "fleetd": 90.0,
    "fs": 85.0,
    "net": 85.0,
    "obs": 90.0,
    "perf": 65.0,       # 70 % by the same count: tier-1 re-runs three
                        # ledger rows; the shard-plan rows run in CI's
                        # `repro ledger perf`
    "rpc2": 90.0,
    "server": 85.0,
    "sim": 90.0,
    "spec": 90.0,
    "trace": 85.0,
    "venus": 85.0,
}

#: Module (path suffix under src/) -> minimum percent covered.  For
#: files whose correctness burden is higher than their package's
#: floor: the scheduler layer is proven by tests, not review, so its
#: own coverage cannot hide behind the sim package aggregate.
MODULE_FLOORS = {
    "repro/sim/queue.py": 90.0,
}


def module_of(path):
    """Map a measured file path to its repo-relative module suffix."""
    path = path.replace("\\", "/")
    idx = path.rfind("repro/")
    return path[idx:] if idx >= 0 else path


def package_of(path):
    """Map a measured file path to its package name."""
    path = path.replace("\\", "/")
    marker = "repro/"
    idx = path.rfind(marker)
    rel = path[idx + len(marker):] if idx >= 0 else path
    return rel.split("/")[0] if "/" in rel else "(top)"


def main(argv):
    report_path = argv[1] if len(argv) > 1 else "coverage.json"
    with open(report_path) as fh:
        report = json.load(fh)

    totals = {}
    modules = {}
    for path, data in report["files"].items():
        summary = data["summary"]
        pkg = totals.setdefault(package_of(path), [0, 0])
        pkg[0] += summary["covered_lines"]
        pkg[1] += summary["num_statements"]
        suffix = module_of(path)
        if suffix in MODULE_FLOORS:
            modules[suffix] = summary["percent_covered"]

    failed = []
    print("%-12s %8s %8s %7s %7s" % ("package", "covered", "stmts",
                                     "pct", "floor"))
    for package in sorted(totals):
        covered, statements = totals[package]
        pct = 100.0 * covered / statements if statements else 100.0
        floor = FLOORS.get(package)
        print("%-12s %8d %8d %6.1f%% %6s" % (
            package, covered, statements, pct,
            "%.0f%%" % floor if floor is not None else "-"))
        if floor is not None and pct < floor:
            failed.append((package, pct, floor))

    for suffix in sorted(MODULE_FLOORS):
        floor = MODULE_FLOORS[suffix]
        if suffix not in modules:
            failed.append((suffix, 0.0, floor))
            continue
        pct = modules[suffix]
        print("%-24s %24.1f%% %6s" % (suffix, pct, "%.0f%%" % floor))
        if pct < floor:
            failed.append((suffix, pct, floor))

    missing = sorted(set(FLOORS) - set(totals))
    if missing:
        print("note: no measured files for package(s): %s"
              % ", ".join(missing))

    if failed:
        for package, pct, floor in failed:
            print("FAIL %s: %.1f%% < floor %.0f%%" % (package, pct, floor))
        return 1
    print("package coverage: all floors met")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
