"""Pinned reduced-scale entry points for the golden digest fixtures.

The golden machinery (:mod:`repro.analysis.golden`) pins obs timelines
across checkouts.  A catalogue name pins the shipped spec at full
scale; the ``mod:repro.spec.golden:<function>`` entries here pin what
a bare name cannot: reduced-scale runs of the spec families —
``commuter``, ``conflict-storm``, ``doc-archive``, ``replay`` —
through the :func:`~repro.spec.compile.run_spec` path ``repro run``
uses, and shards 0 and 1 of the ``fleet-8`` plan at 0.25 day through
the :func:`~repro.fleetd.plan.shard_config` path the executor uses,
so no change can silently alter what a worker process simulates.  Every
``repro ledger golden`` runs them in two perturbed child interpreters,
so each is also a determinism probe.

The reduced scales are deliberately independent of ``REPRO_FAST`` and
of the catalogue's shipped parameters: fixtures must hash the same
simulation everywhere.  ``commuter`` runs 18 simulated hours so both
commute edges (morning and evening) are inside the pinned window.
"""

from dataclasses import replace

from repro.fleetd.plan import plan_shards, shard_config
from repro.spec.catalog import get
from repro.spec.compile import run_spec
from repro.spec.fleet import run_fleet_study

#: Simulated duration of the pinned commuter run, in days.  0.75 days
#: covers 0:00-18:00: the 9:00 work-start commute, the office phase,
#: and the 17:30 work-end commute all land inside the window.
COMMUTER_GOLDEN_DAYS = 0.75


def commuter_golden(observatory=None):
    """``mod:repro.spec.golden:commuter_golden`` for repro ledger golden.

    The shipped commuter spec shrunk to 2 desktops + 2 laptops over
    0.75 days — small enough for fixtures and CI determinism probes,
    big enough to exercise the diurnal life, both commute edges, and
    the reintegration-on-reconnect path.
    """
    spec = get("commuter")
    spec = replace(spec, clients=replace(spec.clients, count=4,
                                         desktops=2, laptops=2))
    result = run_spec(spec, observatory=observatory,
                      days=COMMUTER_GOLDEN_DAYS)
    return result.summary


def conflict_storm_golden(observatory=None):
    """``mod:repro.spec.golden:conflict_storm_golden`` for repro ledger golden.

    The shipped conflict-storm spec at 3 writers and a single round:
    still enough concurrent disconnected writers to detect and repair
    conflicts, at fixture-friendly cost.
    """
    spec = get("conflict-storm").with_params(writers=3, rounds=1)
    return run_spec(spec, observatory=observatory).summary


def doc_archive_golden(observatory=None):
    """``mod:repro.spec.golden:doc_archive_golden`` for repro ledger golden.

    The shipped doc-archive spec at 3 containers / 16 reads with one
    hoarded container and an early commute (the link degrades at
    t=200 s): covers hoarding, the hoard walk, the weak-link commute,
    and the patience-gated transparent-miss path.
    """
    spec = get("doc-archive").with_params(containers=3, reads=16,
                                          hoarded_containers=1,
                                          commute_at=200.0)
    return run_spec(spec, observatory=observatory).summary


def replay_golden(observatory=None):
    """``mod:repro.spec.golden:replay_golden`` for repro ledger golden.

    The shipped replay spec (the ``trickle-replay`` cell) on its first
    9,000 records, ~680 trace seconds: past the 300 s aging window and
    the 600 s warming period, so it covers trace replay, CML
    optimization, trickle reintegration and the warm-up boundary.
    """
    spec = get("replay").with_params(records=9_000)
    return run_spec(spec, observatory=observatory).summary


def _golden_shard(index, observatory):
    shard = plan_shards("fleet-8", seed=0, days=0.25)[index]
    desktops, laptops = run_fleet_study(shard_config(shard),
                                        observatory=observatory)
    reports = desktops + laptops
    return {
        "shard": shard.index,
        "clients": len(reports),
        "validation_attempts": sum(r.attempts for r in reports),
    }


def golden_shard0(observatory=None):
    """``mod:repro.spec.golden:golden_shard0`` for repro ledger golden."""
    return _golden_shard(0, observatory)


def golden_shard1(observatory=None):
    """``mod:repro.spec.golden:golden_shard1`` for repro ledger golden."""
    return _golden_shard(1, observatory)
