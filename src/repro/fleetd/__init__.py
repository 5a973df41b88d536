"""Sharded multi-process fleet simulation (``repro run <spec> --shards``).

The single-process kernel tops out near 200k events/sec (see
``DESIGN.md`` § Performance model); the next factor of scale must come
from running *several* simulations at once.  The paper's fleet study
(Figure 9) already draws the boundary for us: every client is an
independent Venus instance, and clients only interact through the
server volumes they share.  ``repro.fleetd`` exploits exactly that —

* :mod:`repro.fleetd.plan` partitions a fleet scenario by
  **volume-ownership** into shared-nothing shards: each shard is a
  subset of clients plus its own server hosting only the volumes those
  clients touch.  Shard seeds derive via
  ``derive_rng("fleetd", scenario, seed, shard)``.
* :mod:`repro.fleetd.executor` runs each shard as a complete
  deterministic simulation, either in-process or across a worker pool
  (``map_shards``, the one fan-out the checkpoint runner shares).
* :mod:`repro.fleetd.merge` aggregates per-shard obs metrics and
  Figure-9 client reports into one fleet report, chaining the shards'
  sha256 timeline digests into one.
* :mod:`repro.fleetd.verify` proves a pooled run equivalent to the
  single-process schedule: per-shard timelines are byte-identical to
  the same clients simulated alone, and the merged stream passes an
  invariant sweep.

Because each shard is itself a full deterministic sim, the merged
result is a pure function of ``(scenario, seed, days)`` — worker count
only changes wall-clock, never a byte of output.
"""

from repro.fleetd.executor import ShardResult, run_shard, run_sharded
from repro.fleetd.merge import FleetReport, format_report, merge_results
from repro.fleetd.plan import (
    Shard,
    plan_shards,
    shard_config,
    shard_seed,
)
from repro.fleetd.verify import VerifyReport, merged_stream_invariants, verify_sharded

__all__ = [
    "FleetReport",
    "Shard",
    "ShardResult",
    "VerifyReport",
    "format_report",
    "merge_results",
    "merged_stream_invariants",
    "plan_shards",
    "run_shard",
    "run_sharded",
    "shard_config",
    "shard_seed",
    "verify_sharded",
]
