"""Rapid cache validation (section 4.2).

On reconnection a client must validate every cached object.  With
volume version stamps, one batched RPC validates whole volumes: "If a
volume stamp is still valid, so is every object cached from that
volume."  Stale or missing stamps fall back to batched per-object
validation — no worse than the original scheme.

The :class:`ValidationStats` counters mirror the instrumentation
behind Figure 9: how often a stamp was missing, how many volume
validations were attempted, how many succeeded, and how many
per-object validations each success saved.
"""

from dataclasses import dataclass

from repro.rpc2.packets import FID_VERSION_BYTES

#: Per-object validation batch size (ViceValidateAttrs batching).
VALIDATE_BATCH = 50
#: Client CPU seconds spent walking each cached object's metadata
#: during a validation pass (RVM lookups and status checks on 1995
#: hardware).  This local work dominates validation time on fast
#: networks, which is why volume callbacks make a 9.6 Kb/s validation
#: "only about 25% longer than at 10 Mb/s".
PER_OBJECT_CPU = 0.004


@dataclass
class ValidationStats:
    """Counters matching the paper's Figure 9 columns."""

    volume_opportunities: int = 0   # volumes needing validation
    missing_stamp: int = 0          # ... for which no stamp was cached
    attempts: int = 0               # volume validations attempted
    successes: int = 0              # ... that were still valid
    objects_saved: int = 0          # object validations skipped
    objects_validated: int = 0      # per-object validations performed

    @property
    def missing_stamp_fraction(self):
        if not self.volume_opportunities:
            return 0.0
        return self.missing_stamp / self.volume_opportunities

    @property
    def success_fraction(self):
        if not self.attempts:
            return 0.0
        return self.successes / self.attempts

    @property
    def objects_per_success(self):
        if not self.successes:
            return 0.0
        return self.objects_saved / self.successes


class RapidValidator:
    """Client-side validation engine used on reconnection and walks."""

    def __init__(self, sim, cache, conn, cpu, use_volume_callbacks=True):
        self.sim = sim
        self.cache = cache
        self.conn = conn
        self.use_volume_callbacks = use_volume_callbacks
        self.cpu = cpu
        self.stats = ValidationStats()

    def _observe_rpc(self, kind, objects, **extra):
        """Record one validation RPC (volume-stamp or per-object batch)."""
        obs = self.sim.obs
        if not obs.enabled:
            return
        node = self.conn.endpoint.node
        obs.metrics.counter("validation.rpcs", node=node, kind=kind).inc()
        if kind == "volume":
            obs.metrics.counter("validation.volumes", node=node).inc(objects)
        else:
            obs.metrics.counter("validation.objects", node=node).inc(objects)
        obs.event("validation_rpc", node=node, scope=kind,
                  objects=objects, **extra)

    def _charge_cpu(self, n_objects):
        cost = PER_OBJECT_CPU * n_objects
        if cost > 0:
            yield from self.cpu.use(cost)

    def validate_all(self):
        """Process body: revalidate every cached object.

        Returns the number of objects whose validity was individually
        checked (i.e. not covered by a volume stamp).
        """
        by_volume = {}
        for entry in self.cache.iter_entries():
            if entry.local:
                continue
            by_volume.setdefault(entry.fid.volume, []).append(entry)
        yield from self._charge_cpu(sum(len(v) for v in by_volume.values()))

        need_object_validation = []
        if self.use_volume_callbacks:
            stamps = {}
            for volid, entries in by_volume.items():
                self.stats.volume_opportunities += 1
                info = self.cache.volume_info(volid)
                if info.stamp is None:
                    self.stats.missing_stamp += 1
                    need_object_validation.extend(entries)
                else:
                    stamps[volid] = info.stamp
            if stamps:
                # All volume validations batched into a single RPC.
                self.stats.attempts += len(stamps)
                result = yield self.conn.call(
                    "ValidateVolumes", {"stamps": stamps},
                    args_size=8 + FID_VERSION_BYTES * len(stamps))
                valid_count = sum(
                    1 for valid, _ in result.result["results"].values()
                    if valid)
                self._observe_rpc("volume", len(stamps), valid=valid_count)
                for volid, (valid, stamp) in result.result["results"].items():
                    info = self.cache.volume_info(volid)
                    if valid:
                        self.stats.successes += 1
                        self.stats.objects_saved += len(by_volume[volid])
                        info.callback = True
                        info.stamp = stamp
                    else:
                        info.drop()
                        need_object_validation.extend(by_volume[volid])
        else:
            for entries in by_volume.values():
                need_object_validation.extend(entries)

        yield from self.validate_objects(need_object_validation)
        return len(need_object_validation)

    def validate_objects(self, entries):
        """Process body: batched per-object validation of ``entries``."""
        entries = [e for e in entries if not e.local and e.version is not None]
        for start in range(0, len(entries), VALIDATE_BATCH):
            batch = entries[start:start + VALIDATE_BATCH]
            pairs = [(e.fid, e.version) for e in batch]
            result = yield self.conn.call(
                "ValidateAttrs", {"pairs": pairs},
                args_size=8 + FID_VERSION_BYTES * len(pairs))
            self.stats.objects_validated += len(batch)
            self._observe_rpc("object", len(batch))
            outcomes = result.result["results"]
            for entry in batch:
                valid, status = outcomes.get(entry.fid, (False, None))
                if valid:
                    entry.callback = True
                elif status is not None:
                    # Stale: keep the fresh status, drop stale data.
                    entry.apply_status(status)
                    entry.content = None
                    entry.children = None
                    entry.callback = True
                else:
                    # Deleted on the server.
                    if not entry.dirty:
                        self.cache.remove(entry.fid)
        return len(entries)
