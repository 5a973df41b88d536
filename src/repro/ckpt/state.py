"""Whole-shard state capture: what survives a fleet "overnight shutdown".

A checkpointed fleet run is segmented into day units.  At every day
boundary the shard's world is torn down and everything that matters for
the next morning is captured into a picklable :class:`ShardState`:

* every client as its PR-2 RVM snapshot
  (:func:`repro.faults.persistence.snapshot_venus`) plus the cumulative
  statistics its Figure-9 report is built from;
* the server's recoverable store — volumes with their vnodes, stamps
  and fid allocators, the reintegrator's applied-marks, the counters
  that keep identifiers unique across incarnations;
* the position of every named random stream
  (:meth:`repro.sim.rand.RandomStreams.state`), freezing the shard's
  entire stochastic future;
* driver bookkeeping (per-client op counters, the administrator's
  update counter).

Deliberately volatile, exactly as in PR 2's crash model: callback
promises, in-flight RPC/SFTP state, server->client connections, and the
reintegration barrier.  Clients come back through (rapid) reconnection
validation every morning — Figures 8-9 at fleet scale.

Capture *consumes* the volume fid allocators (the same
consume-one-to-learn-the-next trick ``snapshot_venus`` uses), so it
must only run on a world about to be discarded.
"""

from dataclasses import dataclass, replace
from itertools import count

from repro.fs.namespace import join_path
from repro.fs.volume import Volume

#: Version stamp of the ShardState field set (and of the vnodes and
#: cache entries it pickles).  Manifests embed it next to the Venus
#: snapshot schema version; extend/verify refuse mixed versions rather
#: than misread a checkpoint.  Version 2: vnodes, cache entries and
#: CML records lost their symlink, hard-link, rename and setattr fields.
SCHEMA_VERSION = 2


@dataclass
class ClientState:
    """One parked client: RVM snapshot + cumulative report state."""

    name: str
    kind: str                 # desktop | laptop
    snapshot: object          # repro.faults.persistence.VenusSnapshot
    validation: object        # core.validation.ValidationStats copy
    venus_stats: object       # venus.venus.VenusStats copy
    trickle_stats: object     # core.trickle.TrickleStats copy
    op_counter: int = 0


@dataclass
class VolumeState:
    """One server volume, allocators flattened to plain ints."""

    volid: int
    name: str
    prefix: tuple             # mount prefix components
    stamp: int
    next_vnode: int
    next_uniq: int
    root_fid: object
    vnodes: dict              # fid -> Vnode (ownership transfers)


@dataclass
class ServerState:
    """The server's RVM analogue: store, marks, identity counters."""

    volumes: list
    volid_counter: int
    next_conn_id: int
    applied: dict             # reintegrator marks {client: {seqno: ...}}
    duplicates_skipped: int
    reintegrations: int
    reintegration_conflicts: int
    crashes: int


@dataclass
class ShardState:
    """Everything one shard carries across a day boundary."""

    scenario: str
    family: str
    shard_index: int
    seed: int
    day: int                  # day units completed
    time: float               # sim time at capture (= day * day_seconds)
    day_seconds: float
    server: ServerState
    clients: dict             # name -> ClientState, spec order
    rng: dict                 # stream name -> Random state, sorted
    admin_counter: int = 0
    schema_version: int = SCHEMA_VERSION


def capture_client(name, kind, venus, op_counter):
    """Park a live Venus into a :class:`ClientState`.

    The snapshot consumes the client's allocators (PR-2 semantics), so
    the instance must not execute further ops; either crash it (mid-day
    swap-out) or discard the world (boundary capture).
    """
    from repro.faults.persistence import snapshot_venus

    return ClientState(
        name=name, kind=kind,
        snapshot=snapshot_venus(venus),
        validation=replace(venus.validator.stats),
        venus_stats=replace(venus.stats),
        trickle_stats=replace(venus.trickle.stats),
        op_counter=op_counter)


def hydrate_client(state, sim, network, host):
    """Rebuild a live Venus from a parked :class:`ClientState`.

    Restoration goes through the one PR-2 path
    (:func:`repro.faults.persistence.restore_venus`): EMULATING, no
    callbacks, stamps intact — the morning reconnection revalidates
    rapidly and trickle reintegration resumes from the persisted log.
    The cumulative stats come back so Figure-9 reports span days.
    """
    from repro.faults.persistence import restore_venus

    venus = restore_venus(state.snapshot, sim, network, host)
    venus.validator.stats = replace(state.validation)
    venus.stats = replace(state.venus_stats)
    venus.trickle.stats = replace(state.trickle_stats)
    return venus


def capture_server(server):
    """Flatten a live CodaServer into a :class:`ServerState`.

    Mount order is the registry's insertion order, which is itself a
    pure function of the schedule, so repeated captures of identical
    runs pickle byte-identically.  Callbacks, fragment progress, and
    client connections are volatile — the overnight restart drops them,
    which is what forces morning revalidation.
    """
    volumes = []
    for prefix, volume in server.registry._mounts.items():
        volumes.append(VolumeState(
            volid=volume.volid, name=volume.name, prefix=prefix,
            stamp=volume.stamp,
            next_vnode=next(volume._vnode_counter),
            next_uniq=next(volume._uniq_counter),
            root_fid=volume.root_fid, vnodes=volume.vnodes))
    return ServerState(
        volumes=volumes,
        volid_counter=server._volid_counter,
        next_conn_id=server.endpoint._next_conn_id,
        applied=server.reintegrator._applied,
        duplicates_skipped=server.reintegrator.duplicates_skipped,
        reintegrations=server.reintegrations,
        reintegration_conflicts=server.reintegration_conflicts,
        crashes=server.crashes)


def restore_server(state, sim, network, host):
    """Rebuild a CodaServer (and its registry) from a capture."""
    from repro.server import CodaServer

    server = CodaServer(sim, network, "server", host)
    server._volid_counter = state.volid_counter
    server.endpoint._next_conn_id = state.next_conn_id
    server.reintegrator._applied = state.applied
    server.reintegrator.duplicates_skipped = state.duplicates_skipped
    server.reintegrations = state.reintegrations
    server.reintegration_conflicts = state.reintegration_conflicts
    server.crashes = state.crashes
    for vs in state.volumes:
        volume = Volume.__new__(Volume)
        volume.volid = vs.volid
        volume.name = vs.name
        volume.stamp = vs.stamp
        volume.vnodes = vs.vnodes
        volume._vnode_counter = count(vs.next_vnode)
        volume._uniq_counter = count(vs.next_uniq)
        volume.root = vs.vnodes[vs.root_fid]
        server.registry.mount(join_path(vs.prefix), volume)
    return server


def check_schema(state):
    """Refuse a :class:`ShardState` from a different field-set version."""
    version = getattr(state, "schema_version", None)
    if version != SCHEMA_VERSION:
        raise ValueError(
            "shard state has ckpt schema version %r; this build restores "
            "only version %d" % (version, SCHEMA_VERSION))
    from repro.faults.persistence import SNAPSHOT_SCHEMA_VERSION

    for client in state.clients.values():
        snap_version = getattr(client.snapshot, "schema_version", None)
        if snap_version != SNAPSHOT_SCHEMA_VERSION:
            raise ValueError(
                "client %r snapshot has schema version %r; this build "
                "restores only version %d"
                % (client.name, snap_version, SNAPSHOT_SCHEMA_VERSION))
    return state
