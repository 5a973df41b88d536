"""Golden-schedule regression tests.

Every pinned scenario's obs timeline must hash to exactly the digest
committed in ``timelines.json``.  These tests are the enforcement
point for the repo's optimization contract: performance work is only
admissible when it is schedule-identical, and any schedule change —
intentional or not — fails here first.

After an *intentional* semantic change, regenerate and commit the
fixture::

    python -m repro golden --regen
"""

import os
import subprocess
import sys

import pytest

from repro.analysis.golden import (
    GOLDEN_SCENARIOS,
    load_fixture,
    timeline_digest,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "timelines.json")


@pytest.fixture(scope="module")
def fixture():
    return load_fixture(FIXTURE)


def test_fixture_pins_every_golden_scenario(fixture):
    assert sorted(fixture["digests"]) == sorted(GOLDEN_SCENARIOS)


@pytest.mark.parametrize("spec", GOLDEN_SCENARIOS)
def test_timeline_matches_fixture(fixture, spec):
    pinned = fixture["digests"][spec]
    sha, events = timeline_digest(spec)
    assert events == pinned["events"], (
        "%s produced %d events, fixture pins %d — schedule changed; "
        "if intentional: python -m repro golden --regen"
        % (spec, events, pinned["events"]))
    assert sha == pinned["sha256"], (
        "%s timeline digest diverged from the golden fixture — "
        "schedule or payload changed; if intentional: "
        "python -m repro golden --regen" % spec)


def test_digest_is_stable_within_a_run():
    sha_a, events_a = timeline_digest("trickle")
    sha_b, events_b = timeline_digest("trickle")
    assert (sha_a, events_a) == (sha_b, events_b)


def test_retired_kernel_env_vars_select_nothing():
    """``REPRO_QUEUE``/``REPRO_POOL`` once picked a scheduler and an
    allocation mode (an unknown value was a ValueError at import);
    there is one kernel now and nothing reads them."""
    env = dict(os.environ, REPRO_QUEUE="bogus", REPRO_POOL="bogus",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run(
        [sys.executable, "-m", "repro", "golden", "--check",
         "--fixture", FIXTURE],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "%d scenario timeline(s) match" % len(GOLDEN_SCENARIOS) \
        in done.stdout
