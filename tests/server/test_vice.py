"""Vice RPC handlers exercised through a raw RPC2 endpoint."""

import pytest

from repro.fs import Fid, ObjectType, SyntheticContent
from repro.net import ETHERNET, Network
from repro.net.host import IDEAL, SERVER_1995
from repro.rpc2 import Rpc2Endpoint
from repro.server import CodaServer
from repro.sim import Simulator
from repro.venus.cml import CmlOp, CmlRecord

from tests.conftest import has_callback


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim)
    net.add_link("client", "server", profile=ETHERNET)
    server = CodaServer(sim, net, "server", SERVER_1995)
    volume = server.create_volume("v", "/coda/v")
    endpoint = Rpc2Endpoint(sim, net, "client", 2432, IDEAL)
    conn = endpoint.connect("server")
    return sim, server, volume, conn


def call(sim, conn, proc, args, **kw):
    return sim.run(conn.call(proc, args, **kw)).result


def test_getattr_returns_status_and_establishes_callback(world):
    sim, server, volume, conn = world
    result = call(sim, conn, "GetAttr", {"fid": volume.root_fid})
    assert result["status"].otype is ObjectType.DIRECTORY
    assert result["volume_stamp"] == volume.stamp
    assert has_callback(server.callbacks, "client", volume.root_fid)


def test_getattr_missing_object(world):
    sim, server, volume, conn = world
    result = call(sim, conn, "GetAttr", {"fid": Fid(volume.volid, 9, 9)})
    assert result["error"] == "nofile"


def test_make_store_fetch_cycle(world):
    sim, server, volume, conn = world
    fid = Fid(volume.volid, 777, 777)
    made = call(sim, conn, "MakeObject",
                {"parent": volume.root_fid, "name": "f", "fid": fid,
                 "otype": "file", "content": SyntheticContent(0)})
    assert made["status"].fid == fid
    stored = call(sim, conn, "Store",
                  {"fid": fid, "content": SyntheticContent(500),
                   "base_version": made["status"].version},
                  send_size=500)
    assert stored["version"] == made["status"].version + 1
    fetched = sim.run(conn.call("Fetch", {"fid": fid}))
    assert fetched.result["status"].length == 500
    assert fetched.bulk_bytes == 500


def test_store_version_conflict(world):
    sim, server, volume, conn = world
    fid = Fid(volume.volid, 777, 777)
    call(sim, conn, "MakeObject",
         {"parent": volume.root_fid, "name": "f", "fid": fid,
          "otype": "file", "content": SyntheticContent(0)})
    result = call(sim, conn, "Store",
                  {"fid": fid, "content": SyntheticContent(1),
                   "base_version": 99}, send_size=1)
    assert result["error"] == "conflict"


def test_make_object_name_collision(world):
    sim, server, volume, conn = world
    args = {"parent": volume.root_fid, "name": "dup",
            "fid": Fid(volume.volid, 901, 901), "otype": "file",
            "content": SyntheticContent(0)}
    call(sim, conn, "MakeObject", args)
    again = dict(args, fid=Fid(volume.volid, 902, 902))
    assert call(sim, conn, "MakeObject", again)["error"] == "exists"


def test_validate_volumes_side_effect(world):
    sim, server, volume, conn = world
    result = call(sim, conn, "ValidateVolumes",
                  {"stamps": {volume.volid: volume.stamp}})
    valid, stamp = result["results"][volume.volid]
    assert valid and stamp == volume.stamp
    assert has_callback(server.callbacks, "client", volume.volid)


def test_validate_volumes_stale_and_unknown(world):
    sim, server, volume, conn = world
    result = call(sim, conn, "ValidateVolumes",
                  {"stamps": {volume.volid: volume.stamp - 1, 999: 5}})
    valid, stamp = result["results"][volume.volid]
    assert not valid and stamp == volume.stamp
    assert result["results"][999] == (False, None)
    assert not has_callback(server.callbacks, "client", volume.volid)


def test_reintegrate_applies_and_reports_versions(world):
    sim, server, volume, conn = world
    fid = Fid(volume.volid, 888, 888)
    records = [
        CmlRecord(op=CmlOp.CREATE, fid=fid, parent=volume.root_fid,
                  name="r", seqno=1),
        CmlRecord(op=CmlOp.STORE, fid=fid,
                  content=SyntheticContent(2_000), seqno=2),
    ]
    result = call(sim, conn, "Reintegrate",
                  {"records": records, "preshipped": []},
                  send_size=2_000)
    assert result["status"] == "ok"
    assert result["new_versions"][fid] == 2
    assert volume.get(fid).content.size == 2_000
    assert server.reintegrations == 1


def test_reintegrate_conflict_applies_nothing(world):
    sim, server, volume, conn = world
    stamp_before = volume.stamp
    fid = Fid(volume.volid, 888, 888)
    records = [
        CmlRecord(op=CmlOp.STORE, fid=fid,
                  content=SyntheticContent(10), base_version=1, seqno=1),
        CmlRecord(op=CmlOp.MKDIR, fid=Fid(volume.volid, 889, 889),
                  parent=volume.root_fid, name="newdir", seqno=2),
    ]
    result = call(sim, conn, "Reintegrate",
                  {"records": records, "preshipped": []}, send_size=10)
    assert result["status"] == "conflict"
    assert [s for s, _r in result["conflicts"]] == [1]
    # Atomicity: the clean mkdir was NOT applied either.
    assert volume.root.lookup("newdir") is None
    assert volume.stamp == stamp_before


def test_fragmented_store_then_reintegrate(world):
    sim, server, volume, conn = world
    fid = Fid(volume.volid, 890, 890)
    total = 50_000
    for index, nbytes in enumerate((20_000, 20_000, 10_000)):
        reply = call(sim, conn, "PutFragment",
                     {"key": 7, "index": index, "total_size": total},
                     send_size=nbytes)
    assert reply["received"] == total
    records = [
        CmlRecord(op=CmlOp.CREATE, fid=fid, parent=volume.root_fid,
                  name="big", seqno=6),
        CmlRecord(op=CmlOp.STORE, fid=fid,
                  content=SyntheticContent(total), seqno=7),
    ]
    result = call(sim, conn, "Reintegrate",
                  {"records": records, "preshipped": [7]}, send_size=0)
    assert result["status"] == "ok"
    assert volume.get(fid).content.size == total


def test_reintegrate_missing_fragments_rejected(world):
    sim, server, volume, conn = world
    fid = Fid(volume.volid, 891, 891)
    call(sim, conn, "PutFragment",
         {"key": 9, "index": 0, "total_size": 40_000}, send_size=10_000)
    records = [
        CmlRecord(op=CmlOp.CREATE, fid=fid, parent=volume.root_fid,
                  name="partial", seqno=8),
        CmlRecord(op=CmlOp.STORE, fid=fid,
                  content=SyntheticContent(40_000), seqno=9),
    ]
    result = call(sim, conn, "Reintegrate",
                  {"records": records, "preshipped": [9]}, send_size=0)
    assert result["status"] == "missing_data"
    assert result["missing"] == [9]
    assert volume.get(fid) is None


def test_remove_via_rpc(world):
    sim, server, volume, conn = world
    dir_fid = Fid(volume.volid, 891, 891)
    fid = Fid(volume.volid, 892, 892)
    call(sim, conn, "MakeObject",
         {"parent": volume.root_fid, "name": "d", "fid": dir_fid,
          "otype": "directory", "content": None})
    call(sim, conn, "MakeObject",
         {"parent": dir_fid, "name": "a", "fid": fid,
          "otype": "file", "content": SyntheticContent(0)})
    assert call(sim, conn, "Remove",
                {"parent": volume.root_fid, "name": "d"})["error"] \
        == "notempty"
    call(sim, conn, "Remove", {"parent": dir_fid, "name": "a"})
    assert volume.get(dir_fid).lookup("a") is None
    assert volume.get(fid) is None
    call(sim, conn, "Remove", {"parent": volume.root_fid, "name": "d"})
    assert volume.root.lookup("d") is None
    assert volume.get(dir_fid) is None
