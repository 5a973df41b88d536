"""Enforce per-package coverage floors, and that tier-1 enters every
``def``, from a coverage.py JSON report.

Usage: python tools/check_package_coverage.py coverage.json
       python tools/check_package_coverage.py coverage.json UNENTERED

The global ``--cov-fail-under`` gate catches wholesale regressions;
the first form stops a PR from funding the global number with easy
lines in one package while another package rots.  Floors are set a few
points below the levels measured when the gate was introduced (tier-1
suite, 2026-08) so routine refactors don't trip them.

The second form is the reachability ratchet: it fails on any ``def``
whose first body statement (a docstring is not one) tier-1 never
executed, unless the ``UNENTERED`` file (``tools/tier1_unentered.txt``)
lists it as ``repro/<path>.py::<qualname>  <reason>``.  A listed
``def`` that is gone, or that tier-1 now enters, fails too, so the
file only shrinks.  ``tools/reach.py --report`` writes the same report
shape from a stdlib recorder, for boxes without ``pytest-cov``.
"""

import ast
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


def _is_docstring(statement):
    return isinstance(statement, ast.Expr) \
        and isinstance(statement.value, ast.Constant) \
        and isinstance(statement.value.value, str)


def _first_statement_lines(node):
    """The lines of ``node``'s first body statement, skipping a
    docstring (a decorated one from its first decorator on); None for
    a body that is only a docstring.  coverage.py reports a multi-line
    statement at its first line and a line tracer may see a later one;
    any of them executed means the def was entered."""
    body = node.body[1:] if _is_docstring(node.body[0]) else node.body
    if not body:
        return None
    first = body[0]
    decorators = getattr(first, "decorator_list", ())
    start = min([first.lineno] + [d.lineno for d in decorators])
    return range(start, first.end_lineno + 1)


def _defs(tree, prefix=""):
    """``(qualname, first statement lines)`` for every def in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, _first_statement_lines(node)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            yield from _defs(node, prefix + node.name + ".")
        else:
            yield from _defs(node, prefix)


def unentered_defs(report):
    """``(every def, the defs tier-1 never entered)`` as sets of
    ``repro/<path>.py::<qualname>`` over the report's files, read
    from the paths the report names."""
    every, unentered = set(), set()
    for path, data in report["files"].items():
        executed = set(data["executed_lines"])
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for qualname, lines in _defs(tree):
            name = "%s::%s" % (module_of(path), qualname)
            every.add(name)
            if lines is not None and executed.isdisjoint(lines):
                unentered.add(name)
    return every, unentered


def read_unentered(path):
    """``{name: reason}`` from the committed list (``#`` comments)."""
    listed = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                name, _, reason = line.partition(" ")
                listed[name] = reason.strip()
    return listed


def check_unentered(report, listed):
    """Failure lines: unlisted unentered defs, and stale or reasonless
    list entries."""
    every, unentered = unentered_defs(report)
    failed = ["FAIL %s: tier-1 never enters it; test it, delete it, or "
              "list it with a reason" % name
              for name in sorted(unentered - set(listed))]
    for name, reason in sorted(listed.items()):
        if name not in every:
            failed.append("FAIL %s: listed, but no such def" % name)
        elif name not in unentered:
            failed.append("FAIL %s: listed, but tier-1 enters it now; "
                          "remove its line" % name)
        elif not reason:
            failed.append("FAIL %s: listed without a reason" % name)
    return failed


def main(argv):
    report_path = argv[1] if len(argv) > 1 else "coverage.json"
    with open(report_path) as fh:
        report = json.load(fh)
    if len(argv) > 2:
        failed = check_unentered(report, read_unentered(argv[2]))
        for line in failed:
            print(line)
        if failed:
            return 1
        print("def reachability: every def tier-1 leaves unentered "
              "is listed in %s" % argv[2])
        return 0

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
