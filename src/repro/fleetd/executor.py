"""Shard execution: each shard is a full deterministic sim, anywhere.

:func:`run_shard` runs one :class:`~repro.fleetd.plan.Shard` to
completion — in whatever process it happens to be called — and returns
a picklable :class:`ShardResult` carrying everything the merge and
verify layers need: the Figure-9 client reports, kernel totals, the
obs metrics rows, the canonical timeline (optionally), and a sha256
digest over the canonical timeline lines — the same hashing the golden
fixtures use, so a shard digest is directly comparable across
processes, worker counts, and checkouts.

:func:`map_shards` is the tree's one fan-out: a task per shard over a
``concurrent.futures.ProcessPoolExecutor`` (``workers >= 1``) or
sequentially in-process (``workers=0``, the verify reference), results
in shard order regardless of completion order, so the merged output is
identical however the pool schedules.  :func:`run_sharded` maps
:func:`run_shard` through it; the checkpoint runner maps its day
driver through it.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field

from repro.fleetd.plan import plan_shards, shard_config
from repro.obs import Observatory
from repro.sim import KernelTally
from repro.spec.fleet import run_fleet_study

#: Node identities that legitimately appear in a shard's timeline
#: without carrying the shard's name prefix: every shard has its own
#: server, and the administrator updates system volumes out-of-band.
SHARD_INFRASTRUCTURE = frozenset({"server", "admin-client", "admin"})


@dataclass
class ShardResult:
    """Everything one shard run sends back to the merge layer."""

    index: int
    seed: int
    desktops: int
    laptops: int
    dispatched: int          # kernel events dispatched
    sim_seconds: float       # simulated time covered
    digest: str = None       # sha256 over canonical timeline lines
    events: int = 0          # obs timeline length
    reports: list = field(default_factory=list)    # ClientReport dicts
    metrics_rows: list = field(default_factory=list)
    stream_stats: dict = None
    timeline: list = None    # event rows, only when requested

    @property
    def clients(self):
        return self.desktops + self.laptops


def canonical(row):
    """One timeline row as a canonical comparable line."""
    return json.dumps(row, sort_keys=True, default=repr)


def timeline_rows(observatory):
    """The observatory's trace flattened to canonical export rows."""
    return [dict(event.to_row()) for event in observatory.trace.events]


def digest_lines(lines):
    """sha256 hexdigest over already-canonical timeline lines."""
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def digest_rows(rows):
    """sha256 hexdigest over canonical timeline lines (golden-style)."""
    return digest_lines(canonical(row) for row in rows)


def stream_stats(rows, shard):
    """Shard-local summary of the event stream for the merged sweep.

    Computed where the events live (inside the worker) so verify never
    needs to ship full timelines for the big scenarios: monotonicity
    of timestamps, the set of node identities seen, and per-kind
    counts travel back in a few hundred bytes.
    """
    monotone = all(rows[i]["time"] <= rows[i + 1]["time"]
                   for i in range(len(rows) - 1))
    nodes = set()
    kinds = {}
    for row in rows:
        kinds[row["kind"]] = kinds.get(row["kind"], 0) + 1
        for key in ("node", "client"):
            value = row.get(key)
            if value is not None:
                nodes.add(value)
    return {
        "monotone": monotone,
        "nodes": sorted(nodes),
        "kinds": kinds,
        "first_time": rows[0]["time"] if rows else None,
        "last_time": rows[-1]["time"] if rows else None,
        "prefix": shard.name_prefix,
    }


def run_shard(shard, with_timeline=False, instrument=True):
    """Run one shard to completion; returns a :class:`ShardResult`.

    ``instrument=True`` (the default) attaches a fresh Observatory so
    the result carries the timeline digest, metrics rows, and stream
    stats the equivalence machinery feeds on.  ``instrument=False``
    runs bare — no observatory, no digest — as the count ledger's
    in-process rows do, whose dispatch counts its sharded rows sit
    beside.
    ``with_timeline`` additionally ships the event rows back, which
    only the small scenarios and tests want.
    """
    observatory = Observatory() if instrument else None
    with KernelTally() as tally:
        desktops, laptops = run_fleet_study(shard_config(shard),
                                            observatory=observatory)
    result = ShardResult(
        index=shard.index, seed=shard.seed,
        desktops=shard.desktops, laptops=shard.laptops,
        dispatched=tally.events, sim_seconds=tally.sim_seconds,
        reports=[asdict(report) for report in desktops + laptops])
    if observatory is not None:
        rows = timeline_rows(observatory)
        result.digest = digest_rows(rows)
        result.events = len(rows)
        result.metrics_rows = observatory.metrics.rows()
        result.stream_stats = stream_stats(rows, shard)
        if with_timeline:
            result.timeline = rows
    return result


def map_shards(task, shards, workers, *args):
    """``[task(shard, *args) for shard in shards]``, maybe on a pool.

    ``workers=0`` runs sequentially in this process (the reference
    execution verify compares against); ``workers >= 1`` uses a
    process pool of at most ``len(shards)`` workers, so ``task`` and
    everything it takes and returns must pickle.  Submission and
    collection both follow shard order, so the output is independent
    of pool scheduling; a worker's exception re-raises here.
    """
    if not workers:
        return [task(shard, *args) for shard in shards]
    # Function-level: concurrent.futures loads multiprocessing, start-up
    # cost that an in-process run never needs.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(shards))) as pool:
        futures = [pool.submit(task, shard, *args) for shard in shards]
        return [future.result() for future in futures]


def run_sharded(scenario, workers=1, seed=0, days=None,
                with_timeline=False, instrument=True):
    """Plan, execute, and merge ``scenario``; returns a FleetReport."""
    # Function-level: repro.fleetd.merge imports this module's canonical.
    from repro.fleetd.merge import merge_results
    shards = plan_shards(scenario, seed=seed, days=days)
    results = map_shards(run_shard, shards, workers, with_timeline,
                         instrument)
    return merge_results(scenario, seed, workers, shards, results)
