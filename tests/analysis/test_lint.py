"""The determinism linter: every rule, suppression path, and the
self-check that the shipped package is lint-clean."""

import json
import textwrap

import pytest

from repro.analysis import lint
from repro.cli import main


def run(source, path="pkg/module.py", **kwargs):
    return lint.lint_source(textwrap.dedent(source), path, **kwargs)


def rules_of(findings):
    return [finding.rule for finding in findings]


# ---------------------------------------------------------------------------
# DET001: wall clock


@pytest.mark.parametrize("snippet", [
    "import time\nnow = time.time()\n",
    "import time\nnow = time.monotonic()\n",
    "import time\nnow = time.perf_counter()\n",
    "import time as t\nnow = t.time()\n",
    "from time import time\nnow = time()\n",
    "from time import monotonic as mono\nnow = mono()\n",
    "import datetime\nnow = datetime.datetime.now()\n",
    "import datetime\nnow = datetime.datetime.today()\n",
    "from datetime import datetime\nnow = datetime.utcnow()\n",
    "from datetime import date\nnow = date.today()\n",
])
def test_det001_wall_clock_calls(snippet):
    assert "DET001" in rules_of(run(snippet))


def test_det001_ignores_sim_now_and_unrelated_time_methods():
    clean = """
        def tick(sim, obs):
            start = sim.now
            obs.metrics.counter("x").inc()
            return obs.time()
    """
    assert rules_of(run(clean)) == []


# ---------------------------------------------------------------------------
# DET002: unmanaged randomness


@pytest.mark.parametrize("snippet", [
    "import random\nrng = random.Random(0)\n",
    "import random\nrng = random.SystemRandom()\n",
    "from random import Random\nrng = Random(0)\n",
    "import random\nvalue = random.random()\n",
    "import random\nvalue = random.choice([1, 2])\n",
    "import random as rnd\nvalue = rnd.uniform(0, 1)\n",
    "from random import shuffle\nshuffle([1, 2])\n",
])
def test_det002_unmanaged_randomness(snippet):
    assert "DET002" in rules_of(run(snippet))


def test_det002_ignores_stream_draws():
    clean = """
        def jitter(sim):
            rng = sim.rand.stream("faults.jitter")
            return rng.uniform(0.0, 1.0) + rng.random()
    """
    assert rules_of(run(clean)) == []


def test_det002_file_allowlist():
    source = "import random\nrng = random.Random('seed')\n"
    assert "DET002" in rules_of(
        lint.lint_source(source, "/repo/pkg/other.py", root="/repo"))
    assert rules_of(lint.lint_source(
        source, "/repo/sim/rand.py", root="/repo")) == []


# ---------------------------------------------------------------------------
# DET003: hash-ordered iteration feeding the scheduler


def test_det003_set_iteration_scheduling():
    source = """
        def spawn_all(sim, names):
            for name in set(names):
                sim.process(worker(name))
    """
    assert "DET003" in rules_of(run(source))


@pytest.mark.parametrize("iterable", [
    "{1, 2, 3}",
    "frozenset(names)",
    "{n for n in names}",
    "set(names) & active",
    "table.keys()",
    "table.items()",
])
def test_det003_hash_ordered_iterables(iterable):
    source = """
        def spawn_all(sim, names, active, table):
            for item in %s:
                sim.sleep(1.0)
    """ % iterable
    assert "DET003" in rules_of(run(source))


@pytest.mark.parametrize("call", [
    "sim.sleep(1.0)",
    "Timeout(sim, 1.0)",
    "At(sim, 5.0)",
    "ping.done.fail(Interrupt(None))",
    "waiter.succeed(name)",
])
def test_det003_every_scheduling_spelling(call):
    """A set loop that schedules by sleeping, by building a ``Timeout``
    or ``At`` as the callback chains do, or by settling an event is
    flagged just as one that starts a process."""
    source = """
        def spawn_all(sim, names, ping, waiter):
            for name in set(names):
                %s
    """ % call
    assert "DET003" in rules_of(run(source))


def test_det003_sorted_iteration_is_clean():
    source = """
        def spawn_all(sim, names):
            for name in sorted(set(names)):
                sim.process(worker(name))
    """
    assert rules_of(run(source)) == []


def test_det003_set_iteration_without_scheduling_is_clean():
    source = """
        def total(sizes):
            out = 0
            for size in set(sizes):
                out += size
            return out
    """
    assert rules_of(run(source)) == []


# ---------------------------------------------------------------------------
# DET004: timestamp equality


def test_det004_eq_on_sim_now():
    source = """
        def poll(sim):
            if sim.now == 3.0:
                return True
    """
    assert "DET004" in rules_of(run(source))


def test_det004_ordering_is_clean():
    source = """
        def poll(sim, deadline):
            return sim.now >= deadline
    """
    assert rules_of(run(source)) == []


# ---------------------------------------------------------------------------
# SIM001: event-heap access


@pytest.mark.parametrize("snippet", [
    "import heapq\n",
    "from heapq import heappush\n",
    "def peek(sim):\n    return sim._queue[0]\n",
])
def test_sim001_heap_access(snippet):
    assert "SIM001" in rules_of(run(snippet))


def test_sim001_kernel_is_allowlisted():
    source = "import heapq\n\ndef push(self):\n    return self._queue\n"
    assert rules_of(lint.lint_source(
        source, "/repo/sim/kernel.py", root="/repo")) == []
    # The allowlist is the four scheduler-layer files and nothing else.
    assert "SIM001" in rules_of(lint.lint_source(
        source, "/repo/sim/pool.py", root="/repo"))


# ---------------------------------------------------------------------------
# OBS001: closed event taxonomy


def test_obs001_unknown_kind():
    source = """
        def note(obs):
            obs.event("totally_new_kind", node="x")
    """
    findings = run(source)
    assert rules_of(findings) == ["OBS001"]
    assert "totally_new_kind" in findings[0].message


def test_obs001_known_kind_and_conditional_kinds():
    source = """
        def note(obs, up):
            obs.event("cache_miss", node="x")
            obs.event("link_up" if up else "link_down", link="l")
    """
    assert rules_of(run(source)) == []


def test_obs001_nonliteral_kind():
    source = """
        def note(obs, kind):
            obs.event(kind, node="x")
    """
    assert rules_of(run(source)) == ["OBS001"]


def test_obs001_event_factory_is_not_a_trace_event():
    assert rules_of(run("def fresh(sim):\n    return sim.event()\n")) == []


# ---------------------------------------------------------------------------
# Pragmas


def test_pragma_suppresses_on_same_line():
    source = ("import time\n"
              "t = time.time()  # repro: allow[DET001] test fixture\n")
    assert rules_of(run(source)) == []


def test_pragma_on_comment_line_covers_next_code_line():
    source = ("import time\n"
              "# repro: allow[DET001] wall clock needed here because the\n"
              "# explanation spans two comment lines\n"
              "t = time.time()\n")
    assert rules_of(run(source)) == []


def test_pragma_for_other_rule_does_not_suppress():
    source = ("import time\n"
              "t = time.time()  # repro: allow[DET002] wrong rule\n")
    assert "DET001" in rules_of(run(source))


def test_pragma_without_reason_is_prg001():
    source = ("import time\n"
              "t = time.time()  # repro: allow[DET001]\n")
    rules = rules_of(run(source))
    assert "PRG001" in rules
    assert "DET001" in rules      # the reasonless pragma does not apply


def test_pragma_with_unknown_rule_is_prg001():
    source = "x = 1  # repro: allow[NOPE123] whatever\n"
    assert rules_of(run(source)) == ["PRG001"]


def test_syntax_error_is_reported_not_raised():
    findings = run("def broken(:\n")
    assert rules_of(findings) == ["PRG001"]


# ---------------------------------------------------------------------------
# Output formats and the package self-check


def test_json_output_round_trips():
    findings = run("import time\nt = time.time()\n")
    decoded = json.loads(lint.format_json(findings))
    assert decoded[0]["rule"] == "DET001"
    assert decoded[0]["line"] == 2


def test_text_output_mentions_rule_and_location():
    findings = run("import time\nt = time.time()\n", path="x.py")
    text = lint.format_text(findings)
    assert "x.py:2" in text and "DET001" in text
    assert lint.format_text([]) == "determinism lint: clean"


def test_package_is_lint_clean():
    """The acceptance gate: src/repro carries no unexcused finding."""
    findings = lint.lint_package()
    assert findings == [], "\n" + lint.format_text(findings)


def test_seeded_violation_fails_the_package_gate(tmp_path):
    """Planting a wall-clock call in a package-shaped tree is caught."""
    module = tmp_path / "venus" / "daemon.py"
    module.parent.mkdir()
    module.write_text("import time\n\n\ndef tick():\n"
                      "    return time.time()\n")
    findings = lint.lint_paths([str(tmp_path)], root=str(tmp_path))
    assert rules_of(findings) == ["DET001"]


def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nr = random.random()\n")
    assert main(["lint", str(clean)]) == 0
    assert main(["lint", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "DET002" in out
