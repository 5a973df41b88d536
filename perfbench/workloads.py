"""The four workloads, driven through the public functions of ``repro``.

Each workload is three functions:

* ``prepare(seed, scale, spans, tmp)`` builds the inputs from the seed
  (spec lookup and compile, trace generation, temp dir).  Its cost is
  ``setup_s``.
* ``execute(inputs, spans, observe)`` is the timed region: the calls
  into the simulator and nothing else.  ``observe`` attaches a
  ``repro.obs.Observatory`` (the counted run); timed and profiled runs
  leave observation as the product ships it.
* ``finish(inputs, raw, spans)`` runs after the clock stops: it checks
  the outputs, counts attempted and failed operations (``failed``
  defaults to one per entry of ``failures``), and builds the
  fingerprint and the counters.

Why these four is recorded in BENCHMARK.json and, at length, in
README.md: they are the paper's own experiments that keep the layers
apart.
"""

import dataclasses
import hashlib
import io
import json
import os

from repro.bench.common import make_testbed, populate_volume, warm_cache
from repro.bench.fleet import run_fleet_study
from repro.bench.replay import WARM_SECONDS
from repro.bench.transport import LOSS, TRANSFER_BYTES
from repro.ckpt import (CheckpointStore, CkptOptions, extend_checkpointed,
                        run_checkpointed, verify_checkpoint)
from repro.fleetd.executor import digest_rows, timeline_rows
from repro.net import ETHERNET, MODEM, WAVELAN, Network
from repro.net.host import LAPTOP_1995, SERVER_1995
from repro.obs import Observatory
from repro.obs.export import write_events_jsonl
from repro.rpc2 import Rpc2Endpoint, tcp_transfer
from repro.sim import RandomStreams, Simulator
from repro.spec import catalog
from repro.spec.compile import fleet_config
from repro.spec.seeds import master_seed
from repro.trace import SEGMENT_SPECS, TraceReplayer, generate_segment
from repro.venus import VenusConfig

FLEET = "fleet-32"
#: A transfer whose connection dies is re-issued with a fresh loss
#: stream, as Venus re-issues an RPC after ConnectionDead; the
#: operation fails only when every attempt dies.  See README.md, "Known
#: product bug".
TRANSFER_ATTEMPTS = 3

#: Input sizes.  ``full`` is what the driver measures; ``smoke`` is the
#: self-test's scale.
SCALES = {
    "full": {"fleet_days": 0.2, "trials": 4,
             "cells": (("purcell", ETHERNET), ("messiaen", MODEM)),
             "day_seconds": 5400.0},
    "smoke": {"fleet_days": 0.05, "trials": 1,
              "cells": (("messiaen", MODEM),),
              "day_seconds": 300.0},
}


def _digest(value):
    blob = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _observed(observatories, spans):
    """What a counted run saw, after exporting it the way fleetd does.

    Returns the metric rows, the event kinds and the bytes of JSONL the
    timelines serialise to; the export is timed as ``obs.export``.
    """
    rows, kinds, written = [], {}, 0
    with spans.span("obs.export"):
        for observatory in observatories:
            digest_rows(timeline_rows(observatory))
            buffer = io.StringIO()
            write_events_jsonl(observatory.trace.events, buffer)
            written += len(buffer.getvalue())
    for observatory in observatories:
        rows.extend(observatory.metrics.rows())
        for kind, count in observatory.trace.counts().items():
            kinds[kind] = kinds.get(kind, 0) + count
    return {"rows": rows, "kinds": kinds, "export_bytes": written}


# ----------------------------------------------------------------------
# fleet-validate


def fleet_prepare(seed, scale, spans, tmp):
    with spans.span("spec.compile"):
        spec = catalog.get(FLEET)
        spec.check()
        config = fleet_config(
            spec, master_seed(spec.seed_kind, spec.name, seed),
            days=scale["fleet_days"])
    return {"config": config,
            "clients": spec.clients.desktops + spec.clients.laptops}


def fleet_execute(inputs, spans, observe):
    observatory = Observatory() if observe else None
    with spans.span("bench.run_fleet_study"):
        desktops, laptops = run_fleet_study(inputs["config"],
                                            observatory=observatory)
    return {"reports": desktops + laptops, "observatory": observatory}


def fleet_finish(inputs, raw, spans):
    reports = [dataclasses.asdict(report) for report in raw["reports"]]
    failures = ["client %s made no validation attempt" % report["name"]
                for report in reports if report["attempts"] == 0]
    missing = inputs["clients"] - len(reports)
    if missing:
        failures.append("%d client report(s) missing" % missing)
    outcome = {
        "attempted": inputs["clients"],
        "failures": failures,
        "fingerprint": {
            "reports": _digest(reports),
            "validation_attempts": sum(r["attempts"] for r in reports)},
        "counters": {},
    }
    if raw["observatory"] is not None:
        outcome["observed"] = _observed([raw["observatory"]], spans)
    return outcome


# ----------------------------------------------------------------------
# bulk-transfer


def bulk_prepare(seed, scale, spans, tmp):
    grid = [(protocol, profile, direction, 1000 * seed + trial)
            for protocol in ("TCP", "SFTP")
            for profile in (ETHERNET, WAVELAN, MODEM)
            for direction in ("receive", "send")
            for trial in range(scale["trials"])]
    return {"grid": grid}


def _transfer(sim, net, link, protocol, profile, direction, spans):
    """One 1 MB transfer over ``link``; returns the bytes delivered.

    Raises what the transport raises when the connection dies.
    """
    if protocol == "TCP":
        src, dst, src_host, dst_host = (
            ("laptop", "server", LAPTOP_1995, SERVER_1995)
            if direction == "send"
            else ("server", "laptop", SERVER_1995, LAPTOP_1995))
        process = tcp_transfer(sim, net, src, dst, TRANSFER_BYTES,
                               src_host, dst_host)
        with spans.span("sim.run"):
            sim.run(process)
        # The receiver finishes only once every segment has arrived;
        # the data direction's delivered bytes confirm it from the link.
        arrived = link.direction(src).stats.bytes_delivered
        return min(arrived, TRANSFER_BYTES)
    client = Rpc2Endpoint(sim, net, "laptop", 2432, LAPTOP_1995,
                          default_bps=profile.bandwidth_bps)
    server = Rpc2Endpoint(sim, net, "server", 2432, SERVER_1995,
                          default_bps=profile.bandwidth_bps)
    server.register("Fetch", lambda ctx, args: (None, args["n"]))
    server.register("Store", lambda ctx, args: {"got": ctx.received_bytes})
    conn = client.connect("server")
    if direction == "receive":
        call = conn.call("Fetch", {"n": TRANSFER_BYTES})
    else:
        call = conn.call("Store", {}, send_size=TRANSFER_BYTES)
    with spans.span("sim.run"):
        result = sim.run(call)
    return (result.bulk_bytes if direction == "receive"
            else result.result["got"])


def bulk_execute(inputs, spans, observe):
    transfers, observatories = [], []
    for protocol, profile, direction, trial_seed in inputs["grid"]:
        record = {"cell": "%s/%s/%s" % (protocol, profile.name, direction),
                  "seed": trial_seed, "delivered": 0, "errors": [],
                  "events": 0, "sim_seconds": 0.0, "packets_sent": 0,
                  "bytes_sent": 0, "packets_lost": 0}
        with spans.span("transfer", cell=record["cell"], seed=trial_seed):
            for attempt in range(TRANSFER_ATTEMPTS):
                # A fresh two-node network per attempt.
                sim = Simulator()
                if observe:
                    observatories.append(Observatory(sim))
                streams = RandomStreams(trial_seed + 100 * attempt)
                net = Network(sim, rng=streams.stream("net"))
                link = net.add_link("laptop", "server", profile=profile,
                                    loss_rate=LOSS[profile.name])
                try:
                    record["delivered"] = _transfer(
                        sim, net, link, protocol, profile, direction, spans)
                except Exception as exc:    # a dying transfer is counted,
                    record["errors"].append(  # never allowed to end the grid
                        "%s: %s" % (type(exc).__name__, exc))
                stats = link.stats()
                record["events"] += sim.dispatched
                record["sim_seconds"] += sim.now
                record["packets_sent"] += stats.packets_sent
                record["bytes_sent"] += stats.bytes_sent
                record["packets_lost"] += stats.packets_lost
                if record["delivered"]:
                    break
        transfers.append(record)
    return {"transfers": transfers, "observatories": observatories}


def bulk_finish(inputs, raw, spans):
    transfers = raw["transfers"]
    failures = ["%s seed %d: delivered %d byte(s); %s"
                % (t["cell"], t["seed"], t["delivered"],
                   "; ".join(t["errors"]) or "no error")
                for t in transfers if t["delivered"] != TRANSFER_BYTES]
    outcome = {
        "attempted": len(inputs["grid"]),
        "failures": failures,
        "fingerprint": {
            "events": sum(t["events"] for t in transfers),
            "sim_seconds": round(sum(t["sim_seconds"] for t in transfers), 6),
            "transfers": _digest(transfers)},
        "counters": {},
        "notes": ["%s seed %d retried after %s" % (t["cell"], t["seed"], e)
                  for t in transfers for e in t["errors"]],
    }
    if raw["observatories"]:
        outcome["observed"] = _observed(raw["observatories"], spans)
    return outcome


# ----------------------------------------------------------------------
# trickle-replay

AGING_WINDOW = 300.0
THINK_THRESHOLD = 1.0
#: A user who always waits: the rare directory refetch a reintegration
#: provokes is serviced over the modem instead of denied as a miss (at
#: the default patience, concord with segment seed 18 loses 8,306
#: operations to one).
PATIENCE_ALPHA = 1e9


def replay_prepare(seed, scale, spans, tmp):
    cells = []
    for name, profile in scale["cells"]:
        spec = SEGMENT_SPECS[name]
        with spans.span("trace.generate", segment=name):
            segment = generate_segment(
                dataclasses.replace(spec, seed=spec.seed + seed))
        cells.append((segment, profile))
    return {"cells": cells}


def replay_execute(inputs, spans, observe):
    cells, observatories = [], []
    for segment, profile in inputs["cells"]:
        cell = {"cell": "%s/%s" % (segment.name, profile.name),
                "references": len(segment.records), "error": None}
        observatory = Observatory() if observe else None
        if observatory is not None:
            observatories.append(observatory)
        with spans.span("replay", cell=cell["cell"]):
            try:
                with spans.span("bench.make_testbed"):
                    testbed = make_testbed(
                        profile, observatory=observatory,
                        venus_config=VenusConfig(
                            aging_window=AGING_WINDOW,
                            force_write_disconnected=True,
                            patience_alpha=PATIENCE_ALPHA))
                with spans.span("bench.populate_volume"):
                    volume = populate_volume(
                        testbed.server, "/coda/usr/trace", segment.tree)
                with spans.span("bench.warm_cache"):
                    warm_cache(testbed.venus, testbed.server, volume)
                replayer = TraceReplayer(
                    testbed.venus, think_threshold=THINK_THRESHOLD,
                    warm_seconds=WARM_SECONDS)

                def session(testbed=testbed, replayer=replayer,
                            segment=segment):
                    connected = yield from testbed.venus.connect()
                    if not connected:
                        raise RuntimeError("client failed to reach server")
                    return (yield from replayer.run(segment))

                with spans.span("sim.run"):
                    report = testbed.run(session())
            except Exception as exc:
                cell["error"] = "%s: %s" % (type(exc).__name__, exc)
            else:
                venus = testbed.venus
                cell.update(
                    report=dataclasses.asdict(report),
                    events=testbed.sim.dispatched,
                    sim_seconds=testbed.sim.now,
                    cml=dataclasses.asdict(venus.cml.stats),
                    cml_bytes=venus.cml.size_bytes,
                    trickle=dataclasses.asdict(venus.trickle.stats))
        cells.append(cell)
    return {"cells": cells, "observatories": observatories}


def replay_finish(inputs, raw, spans):
    attempted, failed, failures = 0, 0, []
    # What the observatory does not count: the trace's length and the
    # records the CML cancelled.
    counters = {"trace.records": 0, "venus.cml_optimized": 0}
    events = 0
    for cell in raw["cells"]:
        if cell["error"]:
            attempted += cell["references"]
            failed += cell["references"]
            failures.append("%s: every operation lost to %s"
                            % (cell["cell"], cell["error"]))
            continue
        report, cml = cell["report"], cell["cml"]
        attempted += report["operations"]
        if report["errors"] or report["misses"]:
            failed += report["errors"] + report["misses"]
            failures.append("%s: %d error(s), %d miss(es)" % (
                cell["cell"], report["errors"], report["misses"]))
        # Every byte appended to the CML is still there, was shipped,
        # or was cancelled by an optimisation.
        if cml["appended_bytes"] != (cell["cml_bytes"]
                                     + cml["reintegrated_bytes"]
                                     + cml["optimized_bytes"]):
            failed += 1
            failures.append("%s: CML bytes not conserved" % cell["cell"])
        events += cell["events"]
        counters["trace.records"] += cell["references"]
        counters["venus.cml_optimized"] += cml["optimized_records"]
    outcome = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "fingerprint": {
            "events": events,
            "sim_seconds": round(sum(cell.get("sim_seconds", 0.0)
                                     for cell in raw["cells"]), 6),
            "cells": _digest(raw["cells"])},
        "counters": counters,
    }
    if raw["observatories"]:
        outcome["observed"] = _observed(raw["observatories"], spans)
    return outcome


# ----------------------------------------------------------------------
# ckpt-obs-fleet

#: A smaller fleet than fleet-validate's, over longer days: at 2-3 s a
#: repetition, fleet-32 needs days so short that the work differs by
#: 15 % from one seed to the next.
CKPT_FLEET = "fleet-8"
CKPT_DAYS = 1
CKPT_EXTEND = 1


def ckpt_prepare(seed, scale, spans, tmp):
    with spans.span("spec.compile"):
        spec = catalog.get(CKPT_FLEET)
        spec.check()
    return {"seed": seed, "out": os.path.join(tmp, "store"),
            "shards": spec.shards,
            "options": CkptOptions(day_seconds=scale["day_seconds"])}


def ckpt_execute(inputs, spans, observe):
    # Observation is always on inside a checkpointed run; ``observe``
    # changes nothing here.
    with spans.span("ckpt.run"):
        run_checkpointed(CKPT_FLEET, seed=inputs["seed"], days=CKPT_DAYS,
                         out=inputs["out"], workers=0,
                         options=inputs["options"], stream=True)
    with spans.span("ckpt.extend"):
        report = extend_checkpointed(inputs["out"], CKPT_EXTEND)
    return {"report": report}


def ckpt_finish(inputs, raw, spans):
    report = raw["report"]
    days = CKPT_DAYS + CKPT_EXTEND
    store = CheckpointStore(inputs["out"])
    units = sum(len(store.shard(shard["index"]).read_days())
                for shard in report.shards)
    attempted = inputs["shards"] * days + 1
    failures = ["%d shard-day unit(s) missing"
                % (attempted - 1 - units)] if units != attempted - 1 else []
    with spans.span("ckpt.verify"):
        verdict = verify_checkpoint(inputs["out"])
    if not verdict.ok:
        failures.append("verify: " + "; ".join(
            check.format() for check in verdict.failures))
    sizes = {"store": 0, "state": 0, "jsonl": 0}
    for root, _dirs, names in os.walk(inputs["out"]):
        for name in names:
            size = os.path.getsize(os.path.join(root, name))
            sizes["store"] += size
            if name.endswith(".pkl"):
                sizes["state"] += size
            elif name.endswith(".jsonl"):
                sizes["jsonl"] += size
    kinds = {}
    for shard in report.shards:
        for kind, count in shard["stream_stats"]["kinds"].items():
            kinds[kind] = kinds.get(kind, 0) + count
    return {
        "attempted": attempted,
        "failures": failures,
        "fingerprint": {
            "events": report.dispatched,
            "sim_seconds": round(report.sim_seconds, 6),
            "validation_attempts": report.validation_attempts,
            "fleet_digest": report.fleet_digest},
        "counters": {
            "ckpt.store_bytes": sizes["store"],
            "ckpt.state_bytes": sizes["state"],
            "fleetd.shards": len(report.shards)},
        "observed": {"rows": report.metrics_rows, "kinds": kinds,
                     "export_bytes": sizes["jsonl"]},
    }


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    prepare: object
    execute: object
    finish: object


WORKLOADS = {w.name: w for w in (
    Workload("fleet-validate", fleet_prepare, fleet_execute, fleet_finish),
    Workload("bulk-transfer", bulk_prepare, bulk_execute, bulk_finish),
    Workload("trickle-replay", replay_prepare, replay_execute,
             replay_finish),
    Workload("ckpt-obs-fleet", ckpt_prepare, ckpt_execute, ckpt_finish),
)}
