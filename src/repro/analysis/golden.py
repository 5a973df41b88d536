"""Golden-schedule regression fixtures: pinned obs-timeline digests.

``repro check-determinism`` proves a scenario's timeline is stable
*across perturbations of one tree*; this module pins the timeline
*across trees*.  Each golden scenario's obs timeline is hashed
(sha256 over the canonical event lines from
:mod:`repro.analysis.divergence`) and compared against a committed
fixture.  Any change to scheduling order, event payloads, or event
counts — including "harmless" performance work — flips the digest and
fails the check.

That makes the fixtures the enforcement mechanism for this repo's
optimization rule: a fast path is only admissible if it is
*schedule-identical*, i.e. every golden digest is unchanged.

Regenerating after an intentional semantic change::

    python -m repro golden --regen

and commit the updated ``tests/golden/timelines.json`` alongside the
change that justified it.
"""

import hashlib
import json
import os
from dataclasses import dataclass

from repro.analysis.divergence import _canonical, capture_timeline

#: The pinned scenarios: the five scripted testbed specs and the micro
#: fleet by catalogue name, then the reduced-scale entry points of
#: :mod:`repro.spec.golden` — two fleet-8 shards and the three spec
#: families — so kernel, transport, cache, multi-client, and
#: sharded-fleet scheduling paths are all covered.  The shard entries
#: pin what a worker process simulates — a sharded run is only provably
#: equivalent to the single-process schedule if that schedule itself
#: cannot drift silently.
GOLDEN_SCENARIOS = (
    "trickle",
    "outage",
    "smoke",
    "client-crash",
    "server-crash",
    "fleet-golden",
    "mod:repro.spec.golden:golden_shard0",
    "mod:repro.spec.golden:golden_shard1",
    "mod:repro.spec.golden:commuter_golden",
    "mod:repro.spec.golden:conflict_storm_golden",
    "mod:repro.spec.golden:doc_archive_golden",
)

#: Repo-relative fixture location (the CLI runs from the repo root;
#: tests resolve it from their own path instead).
DEFAULT_FIXTURE = os.path.join("tests", "golden", "timelines.json")

FIXTURE_SCHEMA = "repro.golden/1"


def timeline_digest(spec):
    """``(sha256 hexdigest, event count)`` of ``spec``'s obs timeline."""
    lines = [_canonical(event) for event in capture_timeline(spec)]
    blob = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(blob).hexdigest(), len(lines)


@dataclass
class GoldenMismatch:
    """One scenario whose live digest disagrees with the fixture."""

    scenario: str
    expected: str       # fixture sha256, or None if the spec is new
    actual: str
    expected_events: int
    actual_events: int

    def format(self):
        if self.expected is None:
            return ("%s: not in fixture (live digest %s, %d events) — "
                    "regen required" % (self.scenario, self.actual[:16],
                                        self.actual_events))
        return ("%s: digest %s… != fixture %s… (%d vs %d events)"
                % (self.scenario, self.actual[:16], self.expected[:16],
                   self.actual_events, self.expected_events))


def capture_digests(scenarios=GOLDEN_SCENARIOS):
    """{spec: {"sha256": ..., "events": N}} for each scenario, live."""
    digests = {}
    for spec in scenarios:
        sha, events = timeline_digest(spec)
        digests[spec] = {"sha256": sha, "events": events}
    return digests


def load_fixture(path=DEFAULT_FIXTURE):
    """The committed digest table; raises FileNotFoundError if absent."""
    with open(path) as fh:
        fixture = json.load(fh)
    if fixture.get("schema") != FIXTURE_SCHEMA:
        raise ValueError("unexpected golden fixture schema %r in %s"
                         % (fixture.get("schema"), path))
    return fixture


def write_fixture(path=DEFAULT_FIXTURE, scenarios=GOLDEN_SCENARIOS):
    """Re-capture every golden digest and rewrite the fixture."""
    fixture = {
        "schema": FIXTURE_SCHEMA,
        "regen": "python -m repro golden --regen",
        "digests": capture_digests(scenarios),
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(fixture, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return fixture


def check_golden(path=DEFAULT_FIXTURE, scenarios=None):
    """Compare live digests against the fixture; returns mismatches.

    ``scenarios`` defaults to the fixture's own key set so a stale
    checkout never silently skips a pinned scenario.
    """
    fixture = load_fixture(path)
    pinned = fixture["digests"]
    specs = tuple(scenarios) if scenarios else tuple(sorted(pinned))
    mismatches = []
    for spec in specs:
        sha, events = timeline_digest(spec)
        want = pinned.get(spec)
        if want is None:
            mismatches.append(GoldenMismatch(
                scenario=spec, expected=None, actual=sha,
                expected_events=0, actual_events=events))
        elif want["sha256"] != sha or want["events"] != events:
            mismatches.append(GoldenMismatch(
                scenario=spec, expected=want["sha256"], actual=sha,
                expected_events=want["events"], actual_events=events))
    return mismatches


def diff_digests(old, new):
    """Human-readable lines describing ``old`` -> ``new`` digest changes.

    ``old``/``new`` are digest tables ({spec: {"sha256", "events"}});
    returns one line per changed, added, or removed scenario so a
    ``--regen`` states exactly which pins it moved — the reviewer of a
    re-pin should never have to diff the fixture JSON by hand.
    """
    lines = []
    for spec in sorted(set(old) | set(new)):
        was, fresh = old.get(spec), new.get(spec)
        if was == fresh:
            continue
        if was is None:
            lines.append("added   %-44s %s… (%d events)"
                         % (spec, fresh["sha256"][:16], fresh["events"]))
        elif fresh is None:
            lines.append("removed %-44s was %s… (%d events)"
                         % (spec, was["sha256"][:16], was["events"]))
        else:
            lines.append("changed %-44s %s… -> %s… (%d -> %d events)"
                         % (spec, was["sha256"][:16],
                            fresh["sha256"][:16],
                            was["events"], fresh["events"]))
    return lines
