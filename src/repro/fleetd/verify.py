"""Equivalence proof for sharded runs: pool vs the single-process schedule.

Correctness of a parallel runner *is* the feature, so verification is
structural, not statistical:

1. **Shard-by-shard byte identity.**  Every shard of the pooled run is
   re-simulated alone, in this process, through the identical
   construction path (:func:`repro.fleetd.plan.shard_config` →
   :func:`repro.fleetd.executor.run_shard`), and the two timeline
   digests — golden-style sha256 over canonical event lines — must
   match, along with event counts, kernel totals, and the Figure-9
   client reports.
2. **Merged equality.**  The merged metrics rows and fleet digest must
   be byte-equal between the pooled and reference runs (merging is a
   pure fold, so any difference localizes to a shard above).
3. **Merged-stream invariants.**  The combined stream must be
   well-formed: complete shard cover, per-shard monotone timestamps,
   taxonomy-only event kinds, and volume-ownership containment — no
   client identity ever appears outside the shard that owns its
   prefix.

Any failure is reported with the shard index and field that diverged,
the parallel analogue of the golden probe naming the first divergent
event.
"""

from dataclasses import dataclass, field

from repro.fleetd.executor import (SHARD_INFRASTRUCTURE, map_shards,
                                   run_shard)
from repro.fleetd.merge import merge_results
from repro.fleetd.plan import plan_shards
from repro.obs.events import EVENT_KINDS


@dataclass
class Mismatch:
    """One field where the pooled run disagrees with the reference."""

    shard: int          # -1 for fleet-level fields
    name: str
    sharded: object
    reference: object

    def format(self):
        where = "fleet" if self.shard < 0 else "shard %02d" % self.shard
        return "%s %s: sharded=%r != reference=%r" % (
            where, self.name, _clip(self.sharded), _clip(self.reference))


def _clip(value):
    """``repr(value)``, cut to 64 characters."""
    text = repr(value)
    return text if len(text) <= 64 else text[:64] + "..."


@dataclass
class VerifyReport:
    """Outcome of one equivalence check."""

    scenario: str
    workers: int
    shards: int
    mismatches: list = field(default_factory=list)
    violations: list = field(default_factory=list)   # merged-stream sweep

    @property
    def ok(self):
        return not self.mismatches and not self.violations

    def format(self):
        if self.ok:
            return ("fleetd verify %s: %d shard(s) byte-identical to the "
                    "single-process schedule (%d worker(s)); merged "
                    "stream passes %d invariant(s)"
                    % (self.scenario, self.shards, self.workers,
                       len(MERGED_INVARIANTS)))
        lines = ["fleetd verify %s: NOT equivalent (%d mismatch(es), "
                 "%d stream violation(s))"
                 % (self.scenario, len(self.mismatches),
                    len(self.violations))]
        lines += ["  " + mismatch.format() for mismatch in self.mismatches]
        lines += ["  " + violation for violation in self.violations]
        return "\n".join(lines)


#: Names of the merged-stream invariants, in sweep order (documentation
#: and reporting; the sweep itself is :func:`merged_stream_invariants`).
MERGED_INVARIANTS = (
    "shard-cover",        # indices are exactly 0..S-1, in order
    "monotone-time",      # per-shard timestamps never go backwards
    "taxonomy",           # every event kind is in the obs taxonomy
    "ownership",          # node identities stay inside their shard
)


def merged_stream_invariants(report):
    """Sweep the merged stream; returns a list of violation strings.

    Works from the per-shard stream stats (computed where the events
    lived), so it scales to fleets whose full timelines never leave
    their worker processes.
    """
    violations = []
    indexes = [shard["index"] for shard in report.shards]
    if indexes != list(range(len(indexes))):
        violations.append("shard-cover: got indices %r" % (indexes,))
    owners = {}
    for shard in report.shards:
        stats = shard.get("stream_stats")
        if stats is None:
            violations.append("shard %02d: no stream stats (ran "
                              "uninstrumented?)" % shard["index"])
            continue
        if not stats["monotone"]:
            violations.append("monotone-time: shard %02d timeline goes "
                              "backwards" % shard["index"])
        unknown = sorted(set(stats["kinds"]) - EVENT_KINDS)
        if unknown:
            violations.append("taxonomy: shard %02d emitted unknown "
                              "kind(s) %s" % (shard["index"],
                                              ", ".join(unknown)))
        prefix = stats["prefix"]
        for node in stats["nodes"]:
            if node in SHARD_INFRASTRUCTURE:
                continue
            if not node.startswith(prefix):
                violations.append(
                    "ownership: shard %02d saw node %r outside its "
                    "prefix %r" % (shard["index"], node, prefix))
            previous = owners.setdefault(node, shard["index"])
            if previous != shard["index"]:
                violations.append(
                    "ownership: node %r appears in shards %02d and %02d"
                    % (node, previous, shard["index"]))
    return violations


def compare_reports(sharded, reference):
    """Field-by-field comparison; returns a list of :class:`Mismatch`."""
    mismatches = []
    per_shard_fields = ("digest", "events", "dispatched", "sim_seconds",
                        "clients", "seed")
    for ours, theirs in zip(sharded.shards, reference.shards):
        for name in per_shard_fields:
            if ours[name] != theirs[name]:
                mismatches.append(Mismatch(ours["index"], name,
                                           ours[name], theirs[name]))
    if len(sharded.shards) != len(reference.shards):
        mismatches.append(Mismatch(-1, "shard count",
                                   len(sharded.shards),
                                   len(reference.shards)))
    for name in ("fleet_digest", "clients", "dispatched",
                 "validation_attempts"):
        if getattr(sharded, name) != getattr(reference, name):
            mismatches.append(Mismatch(-1, name, getattr(sharded, name),
                                       getattr(reference, name)))
    if sharded.reports != reference.reports:
        mismatches.append(Mismatch(-1, "client reports",
                                   "pooled run", "reference run"))
    if sharded.metrics_rows != reference.metrics_rows:
        mismatches.append(Mismatch(-1, "metrics rows",
                                   "pooled run", "reference run"))
    return mismatches


def verify_sharded(scenario, workers=2, seed=0, days=None, report=None):
    """Prove a pooled run equivalent to the single-process schedule.

    ``report`` reuses an existing instrumented pooled run (the CLI
    passes the one it just executed); otherwise one is run here with
    ``workers`` processes.  The reference always runs in-process.
    Returns a :class:`VerifyReport`.
    """
    if report is None:
        from repro.fleetd.executor import run_sharded
        report = run_sharded(scenario, workers=workers, seed=seed,
                             days=days)
    shards = plan_shards(scenario, seed=seed,
                         days=days if days is not None else report.days)
    reference = merge_results(scenario, seed, 0, shards,
                              map_shards(run_shard, shards, 0))
    mismatches = compare_reports(report, reference)
    violations = merged_stream_invariants(report)
    return VerifyReport(scenario=scenario, workers=report.workers,
                        shards=len(report.shards),
                        mismatches=mismatches, violations=violations)
