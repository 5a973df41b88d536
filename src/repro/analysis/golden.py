"""Golden-schedule regression pins: the ``golden`` table of the ledger.

``repro check-determinism`` proves a scenario's timeline is stable
*across perturbations of one tree*; this table pins the timeline
*across trees*.  Each golden scenario's obs timeline is hashed
(sha256 over the canonical event lines, as a shard digest is) and
compared against ``tests/golden/timelines.json``.  Any change to
scheduling order, event payloads, or event counts — including
"harmless" performance work — flips the digest and fails the check.

That makes the pins the enforcement mechanism for this repo's
optimization rule: a fast path is only admissible if it is
*schedule-identical*, i.e. every golden digest is unchanged.
:mod:`repro.analysis.ledger` reads, checks and re-pins the file;
after an intentional semantic change::

    python -m repro ledger golden --regen

and commit the updated fixture alongside the change that justified it.
"""

from repro.analysis.divergence import capture_timeline

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


def timeline_pin(spec):
    """``{"sha256", "events"}`` of ``spec``'s obs timeline: one golden row."""
    from repro.fleetd.executor import digest_rows
    rows = capture_timeline(spec)
    return {"sha256": digest_rows(rows), "events": len(rows)}
