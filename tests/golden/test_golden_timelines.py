"""Golden-schedule regression tests.

Every pinned scenario's obs timeline must hash to exactly the digest
committed in ``timelines.json``.  These tests are the enforcement
point for the repo's optimization contract: performance work is only
admissible when it is schedule-identical, and any schedule change —
intentional or not — fails here first.

After an *intentional* semantic change, regenerate and commit the
fixture::

    python -m repro ledger golden --regen
"""

import os
import subprocess
import sys

import pytest

from repro.analysis import ledger
from repro.analysis.divergence import capture_timeline
from repro.analysis.golden import GOLDEN_SCENARIOS
from repro.fleetd.executor import digest_rows

FIXTURE = os.path.join(os.path.dirname(__file__), "timelines.json")


def timeline_pin(spec):
    """``spec``'s golden row, captured in this interpreter."""
    rows = capture_timeline(spec)
    return {"sha256": digest_rows(rows), "events": len(rows)}


@pytest.fixture(scope="module")
def fixture():
    return ledger.read(FIXTURE)


def test_fixture_pins_every_golden_scenario(fixture):
    assert sorted(fixture) == sorted(GOLDEN_SCENARIOS)


@pytest.mark.parametrize("spec", GOLDEN_SCENARIOS)
def test_timeline_matches_fixture(fixture, spec):
    pinned = fixture[spec]
    live = timeline_pin(spec)
    assert live["events"] == pinned["events"], (
        "%s produced %d events, fixture pins %d — schedule changed; "
        "if intentional: python -m repro ledger golden --regen"
        % (spec, live["events"], pinned["events"]))
    assert live["sha256"] == pinned["sha256"], (
        "%s timeline digest diverged from the golden fixture — "
        "schedule or payload changed; if intentional: "
        "python -m repro ledger golden --regen" % spec)


def test_digest_is_stable_within_a_run():
    assert timeline_pin("trickle") == timeline_pin("trickle")


def test_retired_kernel_env_vars_select_nothing():
    """``REPRO_QUEUE``/``REPRO_POOL`` once picked a scheduler and an
    allocation mode (an unknown value was a ValueError at import);
    there is one kernel now and nothing reads them.  This is also the
    suite's one full perturbed golden run: every row in both children."""
    env = dict(os.environ, REPRO_QUEUE="bogus", REPRO_POOL="bogus",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run(
        [sys.executable, "-m", "repro", "ledger", "golden",
         "--file", FIXTURE],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "%d row(s) match" % len(GOLDEN_SCENARIOS) in done.stdout
