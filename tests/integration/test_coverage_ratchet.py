"""The reachability ratchet in ``tools/check_package_coverage.py``,
run on a synthetic coverage.py report over a planted module."""

import importlib.util
import os
import textwrap

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), "..", "..", "tools")
spec = importlib.util.spec_from_file_location(
    "check_package_coverage",
    os.path.join(TOOLS, "check_package_coverage.py"))
checker = importlib.util.module_from_spec(spec)
spec.loader.exec_module(checker)

SOURCE = textwrap.dedent('''\
    def entered():
        """Its docstring is line 2."""
        return 1


    class Box:
        def never(self):
            """Only the docstring's line 8 ran: not an entry."""
            return 2

        @staticmethod
        def listed():
            return 3
''')
#: Lines a run executed: the module's def lines, entered()'s body
#: statement (3), and never()'s docstring line (8) but not its body.
EXECUTED = [1, 3, 6, 7, 8, 11, 12]


@pytest.fixture
def report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = os.path.join("src", "repro", "planted.py")
    os.makedirs(os.path.dirname(path))
    with open(path, "w") as handle:
        handle.write(SOURCE)
    return {"files": {path: {"executed_lines": list(EXECUTED)}}}


def test_a_planted_never_entered_def_fails(report):
    failed = checker.check_unentered(
        report, {"repro/planted.py::Box.listed": "a test seam"})
    assert len(failed) == 1
    assert "repro/planted.py::Box.never" in failed[0]
    assert "never enters it" in failed[0]


def test_a_listed_def_passes(report):
    listed = {"repro/planted.py::Box.never": "a recovery path",
              "repro/planted.py::Box.listed": "a test seam"}
    assert checker.check_unentered(report, listed) == []


def test_a_docstring_is_not_the_first_body_statement(report):
    """entered() counts through line 3, not its docstring; never()'s
    executed docstring line does not make it entered."""
    every, unentered = checker.unentered_defs(report)
    assert "repro/planted.py::entered" in every
    assert unentered == {"repro/planted.py::Box.never",
                         "repro/planted.py::Box.listed"}


@pytest.mark.parametrize("name", ["repro/planted.py::Box.gone",
                                  "repro/planted.py::entered"])
def test_a_stale_entry_fails(report, name):
    """An entry whose def is gone, or that tier-1 now enters, fails:
    the list only shrinks."""
    listed = {"repro/planted.py::Box.never": "a recovery path",
              "repro/planted.py::Box.listed": "a test seam",
              name: "stale"}
    [failure] = checker.check_unentered(report, listed)
    assert name in failure and "listed, but" in failure


def test_an_entry_needs_a_reason(report):
    listed = {"repro/planted.py::Box.never": "a recovery path",
              "repro/planted.py::Box.listed": ""}
    [failure] = checker.check_unentered(report, listed)
    assert "without a reason" in failure


def test_the_committed_list_parses_with_a_reason_per_entry():
    listed = checker.read_unentered(
        os.path.join(TOOLS, "tier1_unentered.txt"))
    assert listed
    assert all(name.startswith("repro/") and "::" in name and reason
               for name, reason in listed.items())
