"""Run, extend, and report checkpointed fleet simulations.

The runner owns the one loop everything goes through::

    state = pickle.loads(state-d<from>.pkl bytes)
    for day in from..to:
        state, summary = run_day(...)          # fresh world per day
        blob = pickle.dumps(state)
        append day unit to the shard store     # (or buffer: resident)
        state = pickle.loads(blob)             # resume from the BYTES

Resuming from the serialized bytes every single day — not from the
live object — is the load-bearing line: a from-scratch run *is* a
sequence of extends, so ``repro ckpt extend`` produces byte-identical
store files by construction rather than by careful matching of two
code paths.

Two buffering modes, identical final bytes:

* **streamed** (default): each day unit is appended as it completes
  and dropped from memory; resident cost is one day of one shard.
* **resident** (``stream=False``): every day unit of every shard is
  held in memory and flushed at the end — the traditional
  collect-then-write shape.  No CLI flag reaches it; it stays while
  ``perfbench/`` names the keyword.

:func:`report_from_store` rebuilds a full
:class:`repro.fleetd.merge.FleetReport` from the directory alone —
metrics from ``metrics.jsonl``, Figure-9 client reports from the final
boundary state, digests from the manifest — and feeds them through the
same ``merge_results`` the sharded executor uses, so checkpointed runs
are first-class citizens of the fleet tooling.
"""

import hashlib
import pickle

from repro.ckpt.driver import CkptOptions, initial_state, run_day
from repro.ckpt.state import SCHEMA_VERSION
from repro.ckpt.store import CheckpointError, CheckpointStore, \
    MANIFEST_SCHEMA
from repro.faults.persistence import SNAPSHOT_SCHEMA_VERSION

#: Pickle protocol pinned for state files: the bytes are part of the
#: checkpoint identity (state sha256s are compared across processes
#: and machines), so the protocol may never float with the interpreter.
PICKLE_PROTOCOL = 4


def _plan(scenario, seed, days):
    from repro.fleetd.plan import plan_shards
    return plan_shards(scenario, seed=seed, days=float(days))


def run_shard_days(shard, store_root, options, from_day, to_day,
                   stream=True):
    """Run one shard from ``from_day`` to ``to_day`` (worker task).

    Streamed, every completed day unit is appended to the shard's
    store immediately and dropped from memory, and the shard's totals
    come back.  Resident (``stream=False``), nothing is written here:
    every day unit is returned to the caller, which flushes all shards
    only after the whole fleet has run — the traditional
    collect-then-write shape whose memory envelope scales with the
    fleet.  Safe to run in a pool: every worker touches only its own
    shard directory.
    """
    from repro.fleetd.executor import canonical, digest_lines, \
        stream_stats, timeline_rows
    from repro.fleetd.plan import shard_config
    from repro.obs import Observatory

    files = CheckpointStore(store_root).shard(shard.index).ensure()
    config = shard_config(shard)
    buffered = []
    if from_day == 0:
        state = initial_state(shard, config, options)
        blob = pickle.dumps(state, protocol=PICKLE_PROTOCOL)
        if stream:
            files.write_state(0, blob)
        else:
            buffered.append((-1, None, None, None, blob))
    else:
        blob = files.read_state_bytes(from_day)
    for day in range(from_day, to_day):
        state = pickle.loads(blob)
        observatory = Observatory()
        state, summary = run_day(shard, config, options, state,
                                 observatory)
        rows = timeline_rows(observatory)
        # Each row is encoded once: the same lines are hashed for the
        # day digest and appended to the timeline file.
        lines = [canonical(row) for row in rows]
        blob = pickle.dumps(state, protocol=PICKLE_PROTOCOL)
        unit = (
            day,
            lines,
            {"day": day, "rows": observatory.metrics.rows()},
            {"day": day,
             "digest": digest_lines(lines),
             "events": len(rows),
             "dispatched": summary.dispatched,
             "sim_seconds": summary.sim_seconds,
             "swap_out": summary.swap_out,
             "swap_in": summary.swap_in,
             "resident_max": summary.resident_max,
             "state_file": files.state_name(day + 1),
             "state_sha256": hashlib.sha256(blob).hexdigest(),
             "state_bytes": len(blob),
             "stream_stats": stream_stats(rows, shard)},
            blob,
        )
        if stream:
            _flush_unit(files, unit)
        else:
            buffered.append(unit)
    if not stream:
        return {"units": buffered}
    return _shard_summary(files, shard)


def _shard_summary(files, shard):
    """A shard's manifest entry, from its (fully flushed) store."""
    records = files.read_days()
    return {
        "index": shard.index,
        "seed": shard.seed,
        "name_prefix": shard.name_prefix,
        "desktops": shard.desktops,
        "laptops": shard.laptops,
        "digest": files.timeline_digest(),
        "events": sum(record["events"] for record in records),
        "dispatched": sum(record["dispatched"] for record in records),
        "sim_seconds": sum(record["sim_seconds"] for record in records),
        "day_digests": [record["digest"] for record in records],
    }


def _flush_unit(files, unit):
    day, lines, metrics_record, day_record, blob = unit
    if day < 0:
        files.write_state(0, blob)      # resident-mode initial state
        return
    files.write_state(day + 1, blob)
    files.append_day(lines, metrics_record, day_record)


def _execute(shards, options, store, from_day, to_day, workers, stream):
    """Fan the day range out over the shards; summaries in shard order.

    Resident mode holds every shard's day units in memory until the
    whole fleet has simulated, then flushes in shard order — the
    resulting files are byte-identical to the streamed ones, only the
    memory envelope differs (which is the point of keeping the mode).
    """
    from repro.fleetd.executor import map_shards
    for shard in shards:
        store.shard(shard.index).ensure()
    results = map_shards(run_shard_days, shards, workers, store.root,
                         options, from_day, to_day, stream)
    if stream:
        return results
    summaries = []
    for shard, result in zip(shards, results):
        files = store.shard(shard.index)
        for unit in result["units"]:
            _flush_unit(files, unit)
        summaries.append(_shard_summary(files, shard))
    return summaries


def _fleet_digest(summaries):
    blob = "\n".join("%d %s" % (summary["index"], summary["digest"])
                     for summary in summaries).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def build_manifest(scenario, seed, days, options, summaries):
    """The manifest: a pure function of identity + shard summaries."""
    from repro.spec.catalog import get
    return {
        "schema": MANIFEST_SCHEMA,
        "scenario": scenario,
        "seed": seed,
        "days": days,
        "options": options.to_dict(),
        "state_schema": SCHEMA_VERSION,
        "snapshot_schema": SNAPSHOT_SCHEMA_VERSION,
        "spec": get(scenario).to_dict(),
        "fleet_digest": _fleet_digest(summaries),
        "shards": summaries,
    }


def run_checkpointed(scenario, seed=0, days=1, out="ckpt-store",
                     workers=0, options=None, stream=True):
    """Run ``days`` day units of ``scenario`` into checkpoint ``out``.

    Refuses an existing checkpoint (extend instead: an accidental
    rerun must not silently append to foreign history).  Returns the
    merged :class:`~repro.fleetd.merge.FleetReport`, rebuilt purely
    from the directory.
    """
    if days < 1:
        raise CheckpointError("a checkpoint needs at least one day")
    options = options or CkptOptions()
    store = CheckpointStore(out)
    if store.exists():
        raise CheckpointError(
            "checkpoint already exists at %s (use extend)" % out)
    shards = _plan(scenario, seed, days)
    summaries = _execute(shards, options, store, 0, days, workers,
                         stream)
    store.write_manifest(
        build_manifest(scenario, seed, days, options, summaries))
    return report_from_store(out)


def extend_checkpointed(out, add_days, workers=0, stream=True):
    """Extend checkpoint ``out`` by ``add_days`` more day units.

    The continuation is byte-identical to a from-scratch run of the
    total duration: it enters the same per-day loop at a later index,
    resuming from the same serialized state bytes that loop would have
    produced.  Identity (scenario, seed, shard seeds, options, schema
    versions) is validated against the manifest before anything runs.
    """
    if add_days < 1:
        raise CheckpointError("extend needs at least one day")
    store = CheckpointStore(out)
    manifest = store.read_manifest()
    _check_identity(manifest)
    scenario, seed = manifest["scenario"], manifest["seed"]
    done = manifest["days"]
    total = done + add_days
    options = CkptOptions(**manifest["options"])
    shards = _plan(scenario, seed, total)
    for shard, entry in zip(shards, manifest["shards"]):
        if shard.seed != entry["seed"] \
                or shard.name_prefix != entry["name_prefix"]:
            raise CheckpointError(
                "shard %d identity mismatch: checkpoint has seed %r "
                "prefix %r, plan derives seed %r prefix %r"
                % (shard.index, entry["seed"], entry["name_prefix"],
                   shard.seed, shard.name_prefix))
    summaries = _execute(shards, options, store, done, total, workers,
                         stream)
    store.write_manifest(
        build_manifest(scenario, seed, total, options, summaries))
    return report_from_store(out)


def _check_identity(manifest):
    """Refuse to touch a checkpoint written by a different schema."""
    if manifest.get("state_schema") != SCHEMA_VERSION:
        raise CheckpointError(
            "checkpoint has ckpt state schema %r; this build writes %d"
            % (manifest.get("state_schema"), SCHEMA_VERSION))
    if manifest.get("snapshot_schema") != SNAPSHOT_SCHEMA_VERSION:
        raise CheckpointError(
            "checkpoint has venus snapshot schema %r; this build "
            "writes %d" % (manifest.get("snapshot_schema"),
                           SNAPSHOT_SCHEMA_VERSION))


# ----------------------------------------------------------------------
# reporting: the directory is the source of truth


def _merge_stream_stats(day_stats, prefix):
    """Fold per-day stream stats into one shard-level summary.

    Monotonicity across the fold needs each day internally monotone
    *and* the day boundaries ordered — exactly what per-day capture
    plus increasing day start times guarantees.
    """
    nodes = set()
    kinds = {}
    times = []
    monotone = True
    for stats in day_stats:
        monotone = monotone and stats["monotone"]
        nodes.update(stats["nodes"])
        for kind, count in stats["kinds"].items():
            kinds[kind] = kinds.get(kind, 0) + count
        if stats["first_time"] is not None:
            if times and times[-1] > stats["first_time"]:
                monotone = False
            times.append(stats["first_time"])
            times.append(stats["last_time"])
    return {"monotone": monotone,
            "nodes": sorted(nodes),
            "kinds": kinds,
            "first_time": times[0] if times else None,
            "last_time": times[-1] if times else None,
            "prefix": prefix}


def report_from_store(out):
    """Rebuild the merged FleetReport from a checkpoint directory.

    A pure function of the directory: metrics rows come from
    ``metrics.jsonl`` (merged with a ``day`` label, then the standard
    ``shard`` label), client reports from the final boundary state,
    digests and totals from the manifest/day summaries.  ``workers``
    is reported as 0 — how many processes wrote the store is not a
    property of the store.
    """
    from dataclasses import asdict

    from repro.bench.fleet import client_report
    from repro.fleetd.executor import ShardResult
    from repro.fleetd.merge import merge_results
    from repro.obs.metrics import merge_rows

    store = CheckpointStore(out)
    manifest = store.read_manifest()
    scenario, seed = manifest["scenario"], manifest["seed"]
    days = manifest["days"]
    shards = _plan(scenario, seed, days)
    results = []
    for shard, entry in zip(shards, manifest["shards"]):
        files = store.shard(shard.index)
        records = files.read_days()
        state = pickle.loads(files.read_state_bytes(days))
        results.append(ShardResult(
            index=shard.index, seed=shard.seed,
            desktops=shard.desktops, laptops=shard.laptops,
            dispatched=sum(r["dispatched"] for r in records),
            sim_seconds=sum(r["sim_seconds"] for r in records),
            digest=entry["digest"],
            events=sum(r["events"] for r in records),
            reports=[asdict(client_report(client.name, client.kind,
                                          client.validation))
                     for client in state.clients.values()],
            metrics_rows=merge_rows(
                ((record["day"], record["rows"])
                 for record in files.read_metrics()), label="day"),
            stream_stats=_merge_stream_stats(
                [r["stream_stats"] for r in records],
                shard.name_prefix)))
    return merge_results(scenario, seed, 0, shards, results)
