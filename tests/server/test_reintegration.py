"""Server-side reintegration: validation, conflicts, atomic apply."""

import pytest

from repro.fs import (
    Fid,
    ObjectType,
    SyntheticContent,
    Vnode,
    Volume,
    VolumeRegistry,
)
from repro.server.reintegration import Reintegrator
from repro.venus.cml import CmlOp, CmlRecord


@pytest.fixture
def world():
    registry = VolumeRegistry()
    volume = Volume(7, "v")
    registry.mount("/coda/v", volume)
    directory = volume.root
    existing = Vnode(volume.alloc_fid(), ObjectType.FILE,
                     content=SyntheticContent(100, tag="orig"))
    volume.add(existing)
    directory.children["old.txt"] = existing.fid
    return registry, volume, Reintegrator(registry), existing


def rec(op, fid, **kwargs):
    return CmlRecord(op=op, fid=fid, **kwargs)


def test_clean_chunk_applies(world):
    registry, volume, reintegrator, existing = world
    new_fid = Fid(7, 500, 500)
    records = [
        rec(CmlOp.CREATE, new_fid, parent=volume.root_fid, name="new.txt",
            seqno=1),
        rec(CmlOp.STORE, new_fid, content=SyntheticContent(2_000),
            seqno=2),
        rec(CmlOp.STORE, existing.fid,
            content=SyntheticContent(300, tag="v2"),
            base_version=existing.version, seqno=3),
    ]
    assert reintegrator.validate(records) == []
    new_versions, stamps = reintegrator.apply(records, mtime=5.0)
    assert volume.root.lookup("new.txt") == new_fid
    assert volume.get(new_fid).content.size == 2_000
    assert existing.content.tag == "v2"
    assert new_versions[existing.fid] == existing.version
    assert 7 in stamps


def test_update_update_conflict_detected(world):
    registry, volume, reintegrator, existing = world
    stale = existing.version
    volume.bump(existing)     # another client got there first
    records = [rec(CmlOp.STORE, existing.fid,
                   content=SyntheticContent(1), base_version=stale,
                   seqno=1)]
    conflicts = reintegrator.validate(records)
    assert conflicts == [(1, "update/update conflict")]


def test_update_on_removed_object_conflicts(world):
    registry, volume, reintegrator, existing = world
    volume.remove(existing.fid)
    records = [rec(CmlOp.STORE, existing.fid,
                   content=SyntheticContent(1), base_version=1, seqno=1)]
    assert reintegrator.validate(records)[0][1] == "object was removed"


def test_name_collision_conflicts(world):
    registry, volume, reintegrator, existing = world
    records = [rec(CmlOp.CREATE, Fid(7, 501, 501),
                   parent=volume.root_fid, name="old.txt", seqno=1)]
    assert reintegrator.validate(records)[0][1] == "name collision"


def test_update_remove_conflict(world):
    registry, volume, reintegrator, existing = world
    stale = existing.version
    volume.bump(existing)
    records = [rec(CmlOp.UNLINK, existing.fid, parent=volume.root_fid,
                   name="old.txt", base_version=stale, seqno=1)]
    assert reintegrator.validate(records)[0][1] == "update/remove conflict"


def test_rmdir_of_nonempty_dir_conflicts(world):
    registry, volume, reintegrator, existing = world
    subdir = Vnode(volume.alloc_fid(), ObjectType.DIRECTORY)
    volume.add(subdir)
    volume.root.children["sub"] = subdir.fid
    subdir.children["occupied"] = existing.fid
    records = [rec(CmlOp.RMDIR, subdir.fid, parent=volume.root_fid,
                   name="sub", seqno=1)]
    assert reintegrator.validate(records)[0][1] == "directory not empty"


def test_conflict_cascades_to_dependents(world):
    """A failed create makes its dependent store conflict too."""
    registry, volume, reintegrator, existing = world
    doomed = Fid(7, 502, 502)
    records = [
        rec(CmlOp.CREATE, doomed, parent=volume.root_fid, name="old.txt",
            seqno=1),                                 # name collision
        rec(CmlOp.STORE, doomed, content=SyntheticContent(1), seqno=2),
    ]
    conflicts = reintegrator.validate(records)
    assert [seqno for seqno, _r in conflicts] == [1, 2]


def test_validation_is_side_effect_free(world):
    """Validate never mutates server state, even on clean chunks."""
    registry, volume, reintegrator, existing = world
    stamp_before = volume.stamp
    version_before = existing.version
    records = [
        rec(CmlOp.STORE, existing.fid, content=SyntheticContent(5),
            base_version=existing.version, seqno=1),
        rec(CmlOp.UNLINK, existing.fid, parent=volume.root_fid,
            name="old.txt", base_version=existing.version, seqno=2),
    ]
    assert reintegrator.validate(records) == []
    assert volume.stamp == stamp_before
    assert existing.version == version_before
    assert volume.root.lookup("old.txt") == existing.fid


def test_intra_chunk_dependencies_validate(world):
    """Create-then-store within one chunk is clean."""
    registry, volume, reintegrator, existing = world
    fid = Fid(7, 503, 503)
    records = [
        rec(CmlOp.CREATE, fid, parent=volume.root_fid, name="tmp",
            seqno=1),
        rec(CmlOp.STORE, fid, content=SyntheticContent(9), seqno=2),
    ]
    assert reintegrator.validate(records) == []
    reintegrator.apply(records, mtime=1.0)
    assert volume.root.lookup("tmp") == fid
    assert volume.get(fid).content.size == 9


def test_apply_mkdir_unlink_rmdir(world):
    registry, volume, reintegrator, existing = world
    subdir_fid = Fid(7, 504, 504)
    inner_fid = Fid(7, 505, 505)
    records = [
        rec(CmlOp.MKDIR, subdir_fid, parent=volume.root_fid, name="d",
            seqno=1),
        rec(CmlOp.CREATE, inner_fid, parent=subdir_fid, name="f",
            seqno=2),
        rec(CmlOp.UNLINK, inner_fid, parent=subdir_fid, name="f",
            base_version=None, seqno=3),
        rec(CmlOp.RMDIR, subdir_fid, parent=volume.root_fid, name="d",
            seqno=4),
    ]
    assert reintegrator.validate(records) == []
    reintegrator.apply(records, mtime=1.0)
    assert volume.root.lookup("d") is None
    assert volume.get(subdir_fid) is None
    assert volume.get(inner_fid) is None
    # The neighbouring file is untouched.
    assert volume.get(existing.fid) is not None
