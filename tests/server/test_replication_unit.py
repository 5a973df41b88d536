"""ReplicaSet and resolution unit behaviour."""

import pytest

from repro.fs import Content, ObjectType, SyntheticContent, Vnode
from repro.net import Network
from repro.net.host import IDEAL, SERVER_1995
from repro.rpc2 import Rpc2Endpoint
from repro.server import CodaServer
from repro.server.replication import (
    UPDATE_PROCS,
    ReplicaSet,
    create_replicated_volume,
    resolve_replica,
)
from repro.sim import Simulator


def test_update_procs_cover_every_mutating_handler():
    """Every Vice handler that mutates state must fan out."""
    mutating = {"Store", "MakeObject", "Remove", "Rename", "SetAttr",
                "Link", "PutFragment", "Reintegrate"}
    assert UPDATE_PROCS == frozenset(mutating)


def test_empty_replica_set_rejected():
    sim = Simulator()
    net = Network(sim)
    endpoint = Rpc2Endpoint(sim, net, "c", 2432, IDEAL)
    with pytest.raises(ValueError):
        ReplicaSet(endpoint, [])


def test_resolve_replica_copies_state_and_counters():
    sim = Simulator()
    net = Network(sim)
    source = CodaServer(sim, net, "s1", SERVER_1995)
    target = CodaServer(sim, net, "s2", SERVER_1995)
    src_vol, dst_vol = create_replicated_volume([source, target],
                                                "v", "/coda/v")
    # Source diverges: a new file plus stamp bumps.
    vnode = Vnode(src_vol.alloc_fid(), ObjectType.FILE,
                  content=Content.of(b"fresh"))
    src_vol.add(vnode)
    src_vol.root.children["f"] = vnode.fid
    src_vol.bump(src_vol.root)
    # Target holds a stale callback that must not survive resolution.
    target.callbacks.add_volume("someclient", dst_vol.volid)

    resolved = resolve_replica(source, target, src_vol.volid)
    assert resolved.stamp == src_vol.stamp
    assert resolved.root.lookup("f") == vnode.fid
    assert resolved.require(vnode.fid).content == Content.of(b"fresh")
    assert not target.callbacks.has_volume("someclient", dst_vol.volid)
    # Copies are independent objects.
    assert resolved.require(vnode.fid) is not vnode
    # Future allocations cannot collide.
    assert resolved.alloc_fid() not in src_vol.vnodes


def test_resolved_replica_alloc_does_not_collide_with_source():
    sim = Simulator()
    net = Network(sim)
    source = CodaServer(sim, net, "s1", SERVER_1995)
    target = CodaServer(sim, net, "s2", SERVER_1995)
    src_vol, dst_vol = create_replicated_volume([source, target],
                                                "v", "/coda/v")
    for _ in range(5):
        vnode = Vnode(src_vol.alloc_fid(), ObjectType.FILE,
                      content=SyntheticContent(1))
        src_vol.add(vnode)
    resolve_replica(source, target, src_vol.volid)
    next_src = src_vol.alloc_fid()
    next_dst = target.registry.by_id(src_vol.volid).alloc_fid()
    assert next_src == next_dst   # counters advanced in lockstep
