"""Merging per-shard results into one fleet report.

A merged fleet report is a pure function of the shard results in shard
order: metrics rows are merged losslessly with a ``shard`` label
(:func:`repro.obs.metrics.merge_rows`), client reports are pooled, and
the fleet digest chains the per-shard sha256 timeline digests.
Nothing here depends on how — or in how many processes — the shards
actually ran, which is what makes the cross-worker-count equivalence
tests meaningful.
"""

import hashlib
import json
from dataclasses import dataclass, field

from repro.obs.metrics import merge_rows, sum_counters


@dataclass
class FleetReport:
    """The merged outcome of one sharded fleet run."""

    scenario: str
    seed: int
    workers: int             # 0 = ran in-process
    days: float
    shards: list = field(default_factory=list)   # per-shard summaries
    fleet_digest: str = None
    clients: int = 0
    dispatched: int = 0
    sim_seconds: float = 0.0
    validation_attempts: int = 0
    mean_success_pct: float = 0.0
    mean_missing_pct: float = 0.0
    reports: list = field(default_factory=list)  # pooled ClientReports
    metrics_rows: list = field(default_factory=list)

    def to_dict(self):
        """JSON-ready form (``repro run <spec> --shards --json PATH``)."""
        return {
            "schema": "repro.fleetd/1",
            "scenario": self.scenario,
            "seed": self.seed,
            "workers": self.workers,
            "days": self.days,
            "fleet_digest": self.fleet_digest,
            "clients": self.clients,
            "dispatched": self.dispatched,
            "sim_seconds": self.sim_seconds,
            "validation_attempts": self.validation_attempts,
            "mean_success_pct": self.mean_success_pct,
            "mean_missing_pct": self.mean_missing_pct,
            "shards": self.shards,
            "reports": self.reports,
            "metrics_rows": self.metrics_rows,
        }


def fleet_digest(results):
    """One sha256 chaining the per-shard digests, in shard order.

    None when any shard ran uninstrumented — a partial digest would
    pretend to cover the fleet.
    """
    if any(result.digest is None for result in results):
        return None
    blob = "\n".join("%d %s" % (result.index, result.digest)
                     for result in results).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def merge_results(scenario, seed, workers, shards, results):
    """Fold ordered :class:`ShardResult` objects into a FleetReport."""
    reports = []
    for result in results:
        for client in result.reports:
            client = dict(client)
            client["shard"] = result.index
            reports.append(client)
    population = len(reports) or 1
    metrics = merge_rows((result.index, result.metrics_rows)
                         for result in results)
    return FleetReport(
        scenario=scenario,
        seed=seed,
        workers=workers,
        days=shards[0].days if shards else 0.0,
        shards=[{
            "index": result.index,
            "seed": result.seed,
            "desktops": result.desktops,
            "laptops": result.laptops,
            "clients": result.clients,
            "dispatched": result.dispatched,
            "sim_seconds": result.sim_seconds,
            "digest": result.digest,
            "events": result.events,
            "stream_stats": result.stream_stats,
        } for result in results],
        fleet_digest=fleet_digest(results),
        clients=sum(result.clients for result in results),
        dispatched=sum(result.dispatched for result in results),
        sim_seconds=sum(result.sim_seconds for result in results),
        validation_attempts=sum(client["attempts"] for client in reports),
        mean_success_pct=(sum(client["success_pct"]
                              for client in reports) / population),
        mean_missing_pct=(sum(client["missing_pct"]
                              for client in reports) / population),
        reports=reports,
        metrics_rows=metrics)


def format_report(report):
    """Human-readable fleet report for the CLI."""
    lines = [
        "fleetd %s (seed %d, %s)"
        % (report.scenario, report.seed,
           "%d worker(s)" % report.workers if report.workers
           else "in-process"),
        "  clients        %10d   in %d shard(s), %.3g day(s) each"
        % (report.clients, len(report.shards), report.days),
        "  dispatched     %10d   kernel events" % report.dispatched,
        "  sim time       %10.1f s" % report.sim_seconds,
        "  validations    %10d   (%.1f%% success, %.1f%% missing stamp)"
        % (report.validation_attempts, report.mean_success_pct,
           report.mean_missing_pct),
    ]
    if report.fleet_digest:
        lines.append("  fleet digest   %s" % report.fleet_digest)
    for shard in report.shards:
        lines.append(
            "    shard %02d: %3d client(s) %9d events  %s"
            % (shard["index"], shard["clients"], shard["dispatched"],
               (shard["digest"] or "")[:16]))
    totals = sum_counters(report.metrics_rows)
    for name in ("sim.events_dispatched", "link.bytes_sent",
                 "cache.hits", "cache.misses", "validation.rpcs"):
        if name in totals:
            lines.append("  %-28s %12d" % (name, totals[name]))
    return "\n".join(lines)


def write_report(report, path):
    """Write the merged report as JSON; returns the path written."""
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
