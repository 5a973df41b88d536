"""What survives a Venus crash: the RVM persistence model.

Real Venus keeps its metadata — the CML, cache entry status, volume
version stamps, the hoard database, and the counters that make
identifiers unique across reboots — in recoverable virtual memory
(RVM), so a crash loses at most the data of files being written at
that instant.  This module is the simulation analogue:
:func:`snapshot_venus` captures exactly the RVM-resident state, and
:func:`restore_venus` builds a fresh Venus from it.

Deliberately volatile (NOT captured):

* callback promises — object and volume flags are cleared, which is
  what forces the restarted client through (rapid) validation;
* fragment-shipping progress and any in-flight RPC or SFTP state;
* the reintegration barrier — frozen records thaw back into the log,
  exactly as an aborted chunk would;
* pending-miss and conflict queues (advice state is session-local).

Counters (CML seqno, fid allocator, RPC connection id) resume past
their snapshot values so the restarted incarnation never reuses an
identifier the server may have already seen.
"""

import copy
from dataclasses import dataclass, field, replace
from itertools import count

from repro.venus.cache import CacheEntry

#: Version stamp written into every snapshot.  Bump when the captured
#: field set (or the meaning of a field) changes; :func:`restore_venus`
#: refuses snapshots stamped with any other version, so a checkpoint
#: written by one schema can never be silently misread by another
#: (the repro.ckpt manifests embed this next to their own version).
#: Version 2: cache entries and CML records lost their symlink,
#: rename, setattr and open-session fields.  Version 3: the pickled
#: ``VenusConfig`` lost seven fields the workloads never set, and
#: ``TimeoutUser`` its per-instance delay.
SNAPSHOT_SCHEMA_VERSION = 3


@dataclass
class VenusSnapshot:
    """One client's RVM image, taken at ``time``."""

    node: str
    time: float
    config: object
    user: object
    #: ``[server node]``: one element, kept a list so pickled images
    #: keep their bytes.
    server_nodes: list
    cml_records: list
    cml_stats: object
    next_seqno: int
    next_fid: int
    next_conn_id: int
    mounts: dict
    entries: list = field(default_factory=list)
    volume_stamps: dict = field(default_factory=dict)
    hoard_entries: list = field(default_factory=list)
    schema_version: int = SNAPSHOT_SCHEMA_VERSION

    @property
    def cml_len(self):
        return len(self.cml_records)


def _copy_record(record):
    """A CML record copy safe to mutate independently of the original.

    Content payloads are immutable in this simulation and are shared.
    """
    return replace(record)


def _copy_entry(entry):
    """A cache entry as RVM would recover it: status yes, callback no."""
    clone = CacheEntry(entry.fid, entry.otype, path=entry.path)
    clone.version = entry.version
    clone.length = entry.length
    clone.mtime = entry.mtime
    clone.content = entry.content
    clone.children = dict(entry.children) \
        if entry.children is not None else None
    clone.callback = False            # promises die with the process
    clone.hoard_priority = entry.hoard_priority
    clone.last_ref = entry.last_ref
    clone.local = entry.local
    # dirty is recomputed from the restored CML.
    return clone


def snapshot_venus(venus):
    """Capture the RVM-persistent slice of a live Venus.

    Called by the fault injector immediately before a scripted crash;
    in RVM terms this is the state of the last committed transaction.
    Consuming one value from each allocator is how we learn its next
    value; the doomed incarnation never allocates again, and the
    restored one starts exactly where the counter stood.
    """
    return VenusSnapshot(
        node=venus.node,
        time=venus.sim.now,
        config=venus.config,
        user=venus.user,
        server_nodes=[venus.server_node],
        cml_records=[_copy_record(r) for r in venus.cml],
        cml_stats=venus.cml.stats.snapshot(),
        next_seqno=next(venus.cml._seq),
        next_fid=next(venus._fid_counter),
        next_conn_id=venus.endpoint._next_conn_id,
        mounts=dict(venus._mounts),
        entries=[_copy_entry(e) for e in venus.cache.entries()],
        volume_stamps={volid: info.stamp
                       for volid, info in venus.cache.volume_infos().items()
                       if info.stamp is not None},
        hoard_entries=[copy.copy(e) for e in venus.hdb],
    )


def restore_venus(snapshot, sim, network, host):
    """Build a recovered Venus from ``snapshot``.

    The new instance starts EMULATING with no callbacks and no volume
    callbacks (stamps themselves survive — presenting them is what
    makes post-restart revalidation *rapid*, Figures 8-9).  Its probe
    daemon reconnects on its own schedule; reconnection revalidates
    and trickle reintegration resumes from the persisted log.
    """
    from repro.venus.venus import Venus

    version = getattr(snapshot, "schema_version", None)
    if version != SNAPSHOT_SCHEMA_VERSION:
        raise ValueError(
            "snapshot of %r has schema version %r; this build restores "
            "only version %d" % (snapshot.node, version,
                                 SNAPSHOT_SCHEMA_VERSION))
    venus = Venus(sim, network, snapshot.node, snapshot.server_nodes[0], host,
                  config=snapshot.config, user=snapshot.user,
                  first_conn_id=snapshot.next_conn_id)
    # Mount table and volume knowledge.
    venus.restore_mounts(snapshot.mounts)
    for volid, stamp in snapshot.volume_stamps.items():
        info = venus.cache.volume_info(volid)
        info.stamp = stamp
        info.callback = False
    for prefix, (volid, _root) in snapshot.mounts.items():
        venus.cache.volume_info(volid)
    # Cache contents (no eviction: the snapshot fit the same capacity).
    for entry in snapshot.entries:
        venus.cache.adopt(_copy_entry(entry))
    # The client modify log, with the barrier gone and the sequence
    # numbering resuming where it stopped.
    venus.cml.restore([_copy_record(r) for r in snapshot.cml_records],
                      snapshot.next_seqno, snapshot.cml_stats.snapshot())
    venus._fid_counter = count(snapshot.next_fid)
    # Hoard database.
    for hoard_entry in snapshot.hoard_entries:
        venus.hdb.add(hoard_entry.path, hoard_entry.priority,
                      children=hoard_entry.children)
    venus._refresh_dirty()
    return venus


def namespace_digest(server):
    """Canonical, hashable digest of the server's whole namespace.

    Paths, object types, versions, content fingerprints and directory
    listings — everything except mtimes, which legitimately differ
    between an interrupted and an uninterrupted run.  Two servers with
    equal digests hold the same files.
    """
    volumes = []
    for volume in sorted(server.registry.volumes(), key=lambda v: v.volid):
        prefix = "/" + "/".join(server.registry.mount_of(volume))
        rows = {}
        stack = [(volume.root, prefix)]
        while stack:
            vnode, path = stack.pop()
            rows[path] = (
                vnode.otype.value,
                vnode.version,
                vnode.content.fingerprint
                if vnode.content is not None else None,
                tuple(sorted(vnode.children)) if vnode.children else None,
            )
            if vnode.children:
                for name, child_fid in vnode.children.items():
                    child = volume.get(child_fid)
                    if child is not None:
                        stack.append((child, path + "/" + name))
        volumes.append((volume.volid, volume.stamp,
                        tuple(sorted(rows.items()))))
    return tuple(volumes)


def fault_fingerprint(testbed):
    """The run fingerprint extended with fault/recovery final state."""
    from repro.spec.compile import fingerprint
    digest = fingerprint(testbed)
    server = testbed.server
    digest["server_namespace"] = namespace_digest(server)
    digest["server_crashes"] = server.crashes
    digest["reintegration_duplicates"] = \
        server.reintegrator.duplicates_skipped
    injector = getattr(testbed, "faults", None)
    if injector is not None:
        digest["fault_log"] = tuple(injector.log)
    return digest
