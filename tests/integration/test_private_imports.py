"""Imports between packages keep the layering honest.

A ``from repro.<pkg> import _name`` across packages is a shared helper
hiding behind an underscore: make it public or keep it home.  And the
library never reaches up into the figure package: ``repro.bench``
(one module per reproduced figure) sits on top of the simulator, so
outside it only the ``figure`` verb and the perf ledger's
transport-sweep row and the figures ledger may import it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Modules outside ``bench/`` allowed to import ``repro.bench``: the CLI
#: (its ``figure`` verb renders a figure's facts), the perf ledger (its
#: ``transport-sweep`` row is Figure 1's sweep) and the ledger machine
#: (its ``figures`` table is every figure's facts).
BENCH_IMPORTERS = {"repro/cli.py", "repro/perf/runner.py",
                   "repro/analysis/ledger.py"}


def _repro_imports():
    """``(path, package, lineno, module, name)`` for every import of a
    ``repro.`` module under ``src/repro``; ``name`` is None for a plain
    ``import`` statement."""
    paths = sorted((SRC / "repro").rglob("*.py"))
    assert paths
    for path in paths:
        package = path.relative_to(SRC / "repro").parts[0].removesuffix(".py")
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "repro":
                for alias in node.names:      # from repro import bench
                    yield (path, package, node.lineno,
                           "repro." + alias.name, None)
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.startswith("repro."):
                for alias in node.names:
                    yield path, package, node.lineno, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro."):
                        yield path, package, node.lineno, alias.name, None


def test_no_cross_package_private_imports():
    offenders = ["%s:%d imports %s.%s" % (path.relative_to(SRC), lineno,
                                          module, name)
                 for path, package, lineno, module, name in _repro_imports()
                 if name is not None and name.startswith("_")
                 and module.split(".")[1] != package]
    assert not offenders, "\n".join(offenders)


def test_only_the_cli_and_perf_ledger_import_the_figure_package():
    offenders = sorted({"%s:%d imports %s" % (path.relative_to(SRC), lineno,
                                              module)
                        for path, package, lineno, module, _name
                        in _repro_imports()
                        if module.split(".")[1] == "bench"
                        and package != "bench"
                        and path.relative_to(SRC).as_posix()
                        not in BENCH_IMPORTERS})
    assert not offenders, "\n".join(offenders)
