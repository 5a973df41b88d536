"""Checkpoint verification: structural integrity + replay equivalence.

Two tiers, both offline-safe (nothing here mutates the store):

* **Structural** — every claim the manifest makes is recomputed from
  the raw files: the streamed full-timeline digest per shard, each
  day's slice digest (the concatenation property makes slice
  boundaries exact), the sha256 of every boundary state file, the
  chained fleet digest, and the bookkeeping (day numbering, record
  counts, schema versions).  A truncated timeline, a tampered state
  file, or an edited manifest all surface here as named failures.
* **Replay** — one sampled ``(shard, day)`` is re-executed in-process
  from its boundary state and must reproduce the recorded timeline
  digest, event count, and next-state sha256 byte-for-byte.  The
  sample is drawn deterministically from the checkpoint identity (via
  :func:`repro.sim.rand.derive_rng`), so two verifiers of the same
  store replay the same slice.

Failures accumulate into a verdict rather than raising on first
contact: a corrupted store should report everything wrong with it.
"""

from dataclasses import dataclass, field

from repro.ckpt.store import CheckpointError, CheckpointStore


@dataclass
class Check:
    """One named verification with its outcome."""

    name: str
    ok: bool
    detail: str = ""

    def format(self):
        mark = "ok  " if self.ok else "FAIL"
        return "%s %s%s" % (mark, self.name,
                            ": " + self.detail if self.detail else "")


@dataclass
class CkptVerdict:
    """Everything verification had to say about one checkpoint."""

    root: str
    checks: list = field(default_factory=list)

    @property
    def ok(self):
        return all(check.ok for check in self.checks)

    @property
    def failures(self):
        return [check for check in self.checks if not check.ok]

    def add(self, name, ok, detail=""):
        self.checks.append(Check(name, bool(ok), detail))
        return ok

    def format(self):
        lines = ["checkpoint %s: %s (%d check(s), %d failure(s))"
                 % (self.root, "OK" if self.ok else "CORRUPT",
                    len(self.checks), len(self.failures))]
        shown = self.failures if self.failures else self.checks
        lines += ["  " + check.format() for check in shown]
        return "\n".join(lines)


def verify_checkpoint(out, replay=True, replay_day=None,
                      replay_shard=None):
    """Verify checkpoint directory ``out``; returns a CkptVerdict.

    ``replay`` re-runs one sampled shard-day in-process (the expensive
    tier); ``replay_day``/``replay_shard`` pin the sample instead of
    drawing it from the checkpoint identity.  A pin without a replay,
    or outside the store (no such shard, no such day), raises
    ValueError naming its ``repro ckpt verify`` flag.
    """
    from repro.ckpt.runner import _check_identity, _fleet_digest

    for flag, pin in (("--replay-day", replay_day),
                      ("--replay-shard", replay_shard)):
        if pin is not None and not replay:
            raise ValueError("%s: pins the replayed sample, and "
                             "--no-replay replays none" % flag)
    verdict = CkptVerdict(root=out)
    store = CheckpointStore(out)
    try:
        manifest = store.read_manifest()
    except CheckpointError as exc:
        verdict.add("manifest", False, str(exc))
        return verdict
    verdict.add("manifest", True)
    days = manifest["days"]
    for flag, pin, count, unit in (
            ("--replay-shard", replay_shard, len(manifest["shards"]),
             "shard"),
            ("--replay-day", replay_day, days, "day")):
        if pin is not None and not 0 <= pin < count:
            raise ValueError("%s %d is out of range: %s holds %d %s(s), "
                             "0 to %d" % (flag, pin, out, count, unit,
                                          count - 1))
    try:
        _check_identity(manifest)
        verdict.add("schema-versions", True)
    except CheckpointError as exc:
        verdict.add("schema-versions", False, str(exc))
    for entry in manifest["shards"]:
        try:
            _verify_shard(verdict, store, entry, days)
        except (CheckpointError, OSError, KeyError, ValueError) as exc:
            verdict.add("shard %02d" % entry.get("index", -1), False,
                        "%s: %s" % (type(exc).__name__, exc))
    verdict.add("fleet-digest",
                _fleet_digest(manifest["shards"])
                == manifest["fleet_digest"],
                "chained shard digests vs manifest")
    if replay and verdict.ok:
        _verify_replay(verdict, manifest, store, replay_day,
                       replay_shard)
    return verdict


def _verify_shard(verdict, store, entry, days):
    """Structural checks for one shard's slice of the store."""
    index = entry["index"]
    label = "shard %02d" % index
    files = store.shard(index)
    records = files.read_days()
    ok = (len(records) == days
          and [record["day"] for record in records] == list(range(days)))
    verdict.add(label + " day-records", ok,
                "%d record(s) for %d day(s)" % (len(records), days))
    if not ok:
        return
    verdict.add(label + " manifest-day-digests",
                entry["day_digests"]
                == [record["digest"] for record in records],
                "per-day digests vs day summaries")
    verdict.add(label + " events-total",
                entry["events"]
                == sum(record["events"] for record in records))
    verdict.add(label + " timeline-digest",
                files.timeline_digest() == entry["digest"],
                "streamed full-timeline sha256")
    try:
        slices = files.day_digests(
            [record["events"] for record in records])
        verdict.add(label + " day-slice-digests",
                    slices == [record["digest"] for record in records],
                    "re-sliced timeline vs day summaries")
    except CheckpointError as exc:
        verdict.add(label + " day-slice-digests", False, str(exc))
    metric_days = [record["day"] for record in files.read_metrics()]
    verdict.add(label + " metrics-records",
                metric_days == list(range(days)))
    import os
    if not os.path.exists(files.state_path(0)):
        verdict.add(label + " state-files", False,
                    "missing %s" % files.state_name(0))
        return
    bad = []
    for record in records:
        day = record["day"]
        try:
            digest = files.state_sha256(day + 1)
        except OSError:
            bad.append("missing %s" % record["state_file"])
            continue
        if digest != record["state_sha256"]:
            bad.append("%s sha256 mismatch" % record["state_file"])
    verdict.add(label + " state-files", not bad, "; ".join(bad))


def _verify_replay(verdict, manifest, store, replay_day, replay_shard):
    """Re-execute one sampled shard-day and compare byte-for-byte."""
    import hashlib
    import pickle

    from repro.ckpt.driver import CkptOptions, run_day
    from repro.ckpt.runner import PICKLE_PROTOCOL, _plan
    from repro.fleetd.executor import digest_rows, timeline_rows
    from repro.fleetd.plan import shard_config
    from repro.obs import Observatory
    from repro.sim.rand import derive_rng

    scenario, seed = manifest["scenario"], manifest["seed"]
    days = manifest["days"]
    shards = _plan(scenario, seed, days)
    rng = derive_rng("ckpt-verify", scenario, seed, days)
    index = (rng.randrange(len(shards)) if replay_shard is None
             else replay_shard)
    day = (rng.randrange(days) if replay_day is None else replay_day)
    shard = shards[index]
    files = store.shard(index)
    record = files.read_days()[day]
    options = CkptOptions(**manifest["options"])
    state = pickle.loads(files.read_state_bytes(day))
    observatory = Observatory()
    state, _summary = run_day(shard, shard_config(shard), options,
                              state, observatory)
    rows = timeline_rows(observatory)
    blob = pickle.dumps(state, protocol=PICKLE_PROTOCOL)
    label = "replay s%02d day %d" % (index, day)
    verdict.add(label + " timeline", digest_rows(rows)
                == record["digest"],
                "%d event(s)" % len(rows))
    verdict.add(label + " events", len(rows) == record["events"])
    verdict.add(label + " state",
                hashlib.sha256(blob).hexdigest()
                == record["state_sha256"],
                "next boundary state sha256")
