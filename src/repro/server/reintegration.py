"""Transactional replay of client modify logs.

Reintegration is atomic: the chunk's records are first *all* validated
against current server state, and only if every one passes are they
applied.  "A failure leaves behind no server state that would hinder a
future retry" (section 4.3.3).  A record that fails validation is a
conflict; the server reports the conflicting sequence numbers and
applies nothing.

Conflict rules (optimistic replica control, after Kumar):

* store: the server object's version must equal the record's base
  version (write/write conflict otherwise), and the object must still
  exist (update/remove conflict).
* create/mkdir: the parent must exist and the name be free.
* unlink: the object must exist and match the base version.
* rmdir: the directory must exist and be empty.
"""

from dataclasses import dataclass, field

from repro.fs.objects import ObjectType, Vnode
from repro.venus.cml import CmlOp


class ConflictError(Exception):
    """Raised internally when a record fails validation."""

    def __init__(self, record, reason):
        self.record = record
        self.reason = reason
        super().__init__("%s: %s" % (record, reason))


@dataclass
class ReintegrationOutcome:
    """Result of one reintegration attempt."""

    ok: bool
    conflicts: list = field(default_factory=list)   # (seqno, reason)
    new_versions: dict = field(default_factory=dict)  # fid -> version
    volume_stamps: dict = field(default_factory=dict)  # volid -> stamp
    applied: int = 0


class Reintegrator:
    """Validates and applies CML chunks against a volume registry."""

    def __init__(self, registry, sim=None):
        self.registry = registry
        # Optional: lets server-side replay emit trace events.  The
        # replay logic itself never consults simulation time.
        self.sim = sim
        # Records already applied, by client: the analogue of the
        # store-ids Coda keeps in RVM so reintegration is idempotent.
        # client -> {seqno -> {fid -> version assigned at first apply}}
        self._applied = {}
        self.duplicates_skipped = 0

    def _observe(self, kind, **fields):
        if self.sim is None:
            return
        obs = self.sim.obs
        if obs.enabled:
            # repro: allow[OBS001] forwarding helper: every call site passes a
            # literal kind the linter checks there, and the closed-taxonomy
            # raise in TraceRecorder still guards the runtime.
            obs.event(kind, **fields)

    # -- idempotent replay ----------------------------------------------

    def is_applied(self, client, seqno):
        """True if this client's record ``seqno`` was already applied."""
        return seqno in self._applied.get(client, ())

    def applied_versions(self, client, seqno):
        """fid -> version mapping stored when the record first applied."""
        return self._applied.get(client, {}).get(seqno, {})

    def mark_applied(self, client, records, new_versions):
        """Durably note records as applied (survives server crashes)."""
        marks = self._applied.setdefault(client, {})
        for record in records:
            marks[record.seqno] = {
                fid: version for fid, version in new_versions.items()
                if fid == record.fid}

    def note_duplicates(self, client, records):
        """Account a batch of re-shipped, already-applied records."""
        self.duplicates_skipped += len(records)
        if self.sim is None:
            return
        obs = self.sim.obs
        if obs.enabled:
            obs.metrics.counter("reintegration.duplicates",
                                client=client).inc(len(records))
            obs.event("reintegration_duplicate", client=client,
                      seqnos=[r.seqno for r in records])

    # -- validation ------------------------------------------------------

    def validate(self, records, own_bumps=None):
        """Return a list of (seqno, reason) conflicts (empty if clean).

        Validation runs against a scratch copy of the affected state so
        that intra-chunk dependencies (create then store) are honoured.
        ``own_bumps`` (fid -> count) discounts version bumps the server
        already applied on this client's behalf — records of a chunk
        re-shipped after a crash whose duplicate prefix was filtered
        out; without the discount the client's own earlier updates
        would read as another client's and conflict falsely.
        """
        conflicts = []
        shadow = _ShadowState(self.registry)
        if own_bumps:
            shadow._own_bumps.update(own_bumps)
        for record in records:
            try:
                self._check(shadow, record)
                shadow.apply(record)
            except ConflictError as conflict:
                conflicts.append((record.seqno, conflict.reason))
        self._observe("reintegration_validate", records=len(records),
                      conflicts=len(conflicts))
        return conflicts

    def _check(self, shadow, record):
        op = record.op
        if op is CmlOp.STORE:
            vnode = shadow.get(record.fid)
            if vnode is None:
                raise ConflictError(record, "object was removed")
            if (record.base_version is not None
                    and shadow.base_version(record.fid, vnode)
                    != record.base_version):
                raise ConflictError(record, "update/update conflict")
        elif op in (CmlOp.CREATE, CmlOp.MKDIR):
            parent = shadow.get(record.parent)
            if parent is None or not parent.is_dir():
                raise ConflictError(record, "parent directory missing")
            if parent.lookup(record.name) is not None:
                raise ConflictError(record, "name collision")
        elif op is CmlOp.UNLINK:
            parent = shadow.get(record.parent)
            if parent is None or parent.lookup(record.name) != record.fid:
                raise ConflictError(record, "object already removed")
            vnode = shadow.get(record.fid)
            if (vnode is not None and record.base_version is not None
                    and shadow.base_version(record.fid, vnode)
                    != record.base_version):
                raise ConflictError(record, "update/remove conflict")
        elif op is CmlOp.RMDIR:
            vnode = shadow.get(record.fid)
            if vnode is None:
                raise ConflictError(record, "directory already removed")
            if vnode.children:
                raise ConflictError(record, "directory not empty")

    # -- application -----------------------------------------------------

    def apply(self, records, mtime):
        """Apply pre-validated records for real; returns outcome data."""
        new_versions = {}
        touched_volumes = set()
        for record in records:
            volume = self.registry.by_id(record.fid.volume)
            self._apply_one(volume, record, mtime)
            vnode = volume.get(record.fid)
            if vnode is not None:
                new_versions[record.fid] = vnode.version
            touched_volumes.add(volume.volid)
        stamps = {volid: self.registry.by_id(volid).stamp
                  for volid in touched_volumes}
        self._observe("reintegration_apply", records=len(records),
                      volumes=len(touched_volumes))
        return new_versions, stamps

    def _apply_one(self, volume, record, mtime):
        op = record.op
        if op is CmlOp.STORE:
            vnode = volume.require(record.fid)
            vnode.content = record.content
            volume.bump(vnode, mtime)
        elif op in (CmlOp.CREATE, CmlOp.MKDIR):
            otype = (ObjectType.FILE if op is CmlOp.CREATE
                     else ObjectType.DIRECTORY)
            vnode = Vnode(record.fid, otype, mtime=mtime,
                          content=record.content)
            volume.add(vnode)
            parent = volume.require(record.parent)
            parent.children[record.name] = record.fid
            volume.bump(parent, mtime)
            volume.stamp += 1  # the new object itself
        else:   # UNLINK, RMDIR
            parent = volume.require(record.parent)
            parent.children.pop(record.name, None)
            volume.bump(parent, mtime)
            volume.remove(record.fid)


class _ShadowState:
    """Copy-on-write view of the registry for conflict-free validation."""

    def __init__(self, registry):
        self.registry = registry
        self._clones = {}
        self._deleted = set()
        self._created = {}
        self._own_bumps = {}     # fid -> versions added by this chunk

    def get(self, fid):
        if fid is None or fid in self._deleted:
            return None
        if fid in self._clones:
            return self._clones[fid]
        if fid in self._created:
            return self._created[fid]
        try:
            volume = self.registry.by_id(fid.volume)
        except KeyError:
            return None
        vnode = volume.get(fid)
        if vnode is None:
            return None
        clone = vnode.clone()
        self._clones[fid] = clone
        return clone

    def base_version(self, fid, vnode):
        """The version this chunk's client saw before its own updates.

        A chunk may store the same file twice (with optimizations off);
        the client logged both against the pre-chunk server version, so
        versions added by the chunk itself are discounted — the analogue
        of Coda recognizing its own store-ids.
        """
        return vnode.version - self._own_bumps.get(fid, 0)

    def apply(self, record):
        """Apply a record to the shadow only."""
        op = record.op
        if op is CmlOp.STORE:
            vnode = self.get(record.fid)
            vnode.content = record.content
            vnode.version += 1
            self._own_bumps[record.fid] = \
                self._own_bumps.get(record.fid, 0) + 1
        elif op in (CmlOp.CREATE, CmlOp.MKDIR):
            otype = (ObjectType.FILE if op is CmlOp.CREATE
                     else ObjectType.DIRECTORY)
            vnode = Vnode(record.fid, otype, content=record.content)
            self._created[record.fid] = vnode
            self._deleted.discard(record.fid)
            self.get(record.parent).children[record.name] = record.fid
        else:   # UNLINK, RMDIR
            self.get(record.parent).children.pop(record.name, None)
            self._mark_deleted(record.fid)

    def _mark_deleted(self, fid):
        self._deleted.add(fid)
        self._clones.pop(fid, None)
        self._created.pop(fid, None)
