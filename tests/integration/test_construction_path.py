"""One construction path: only ``spec/`` builds a testbed by hand.

Every figure cell is a spec.  ``make_testbed``, ``populate_volume`` and
``warm_cache`` are the parts ``repro.spec`` builds its worlds from, so
no module outside ``spec/`` calls them; and the figure package builds
no simulator, network, client or server of its own, except Figure 1's
transport trials, which run RPC2 with nothing above it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Names only ``repro/spec/`` may call.
SPEC_ONLY = {"make_testbed", "populate_volume", "warm_cache"}

#: Constructors only ``repro/bench/transport.py`` may call under
#: ``repro/bench/``.
WORLD = {"Simulator", "Network", "Venus", "CodaServer"}


def _called_names(tree):
    """``(lineno, name)`` of every call to a bare or dotted name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name is not None:
                yield node.lineno, name


def offenders(root):
    """Every call under ``root/repro`` outside its sanctioned place."""
    found = []
    for path in sorted((root / "repro").rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(), str(path))
        for lineno, name in _called_names(tree):
            if name in SPEC_ONLY and not relative.startswith("repro/spec/"):
                found.append("%s:%d calls %s" % (relative, lineno, name))
            elif (name in WORLD and relative.startswith("repro/bench/")
                  and relative != "repro/bench/transport.py"):
                found.append("%s:%d calls %s" % (relative, lineno, name))
    return found


def test_only_spec_builds_testbeds_and_only_transport_builds_worlds():
    assert not offenders(SRC), "\n".join(offenders(SRC))


def test_a_planted_call_fails_the_ratchet(tmp_path):
    bench = tmp_path / "repro" / "bench"
    bench.mkdir(parents=True)
    (bench / "transport.py").write_text("sim = Simulator()\n")
    (bench / "cell.py").write_text(
        "from repro.spec import testbed\n"
        "bed = testbed.make_testbed(None)\n"
        "net = Network(bed.sim)\n")
    (tmp_path / "repro" / "cli.py").write_text("warm_cache(1, 2, 3)\n")
    assert offenders(tmp_path) == ["repro/bench/cell.py:2 calls make_testbed",
                                   "repro/bench/cell.py:3 calls Network",
                                   "repro/cli.py:1 calls warm_cache"]
