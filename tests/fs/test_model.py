"""FIDs, contents, vnodes, volumes, and the namespace."""

import pytest

from repro.fs import (
    ByteContent,
    Content,
    Fid,
    ObjectType,
    SyntheticContent,
    Vnode,
    Volume,
    VolumeRegistry,
    split_path,
)
from repro.net import ETHERNET
from repro.spec.testbed import make_testbed


# ---------------------------------------------------------------- fids

def test_fid_identity_and_ordering():
    a = Fid(1, 2, 3)
    assert a == Fid(1, 2, 3)
    assert a != Fid(1, 2, 4)
    assert Fid(1, 1, 1) < Fid(1, 2, 0)
    assert len({Fid(1, 2, 3), Fid(1, 2, 3)}) == 1


def test_fid_str():
    assert str(Fid(255, 16, 1)) == "ff.10.1"


# ------------------------------------------------------------- content

def test_byte_content_roundtrip():
    content = Content.of(b"hello")
    assert isinstance(content, ByteContent)
    assert content.size == 5
    assert content == Content.of(b"hello")
    assert content != Content.of(b"world")


def test_str_coerces_to_bytes():
    assert Content.of("abc").size == 3


def test_int_coerces_to_synthetic():
    content = Content.of(1_000_000)
    assert isinstance(content, SyntheticContent)
    assert content.size == 1_000_000


def test_synthetic_contents_distinct_by_default():
    assert SyntheticContent(10) != SyntheticContent(10)


def test_synthetic_contents_equal_with_same_tag():
    assert SyntheticContent(10, tag="x") == SyntheticContent(10, tag="x")
    assert SyntheticContent(10, tag="x") != SyntheticContent(11, tag="x")


def test_content_of_rejects_other_types():
    with pytest.raises(TypeError):
        Content.of(3.14)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        SyntheticContent(-1)


# -------------------------------------------------------------- vnodes

def test_file_vnode_length_tracks_content():
    vnode = Vnode(Fid(1, 1, 1), ObjectType.FILE,
                  content=Content.of(b"12345"))
    assert vnode.length == 5
    assert vnode.is_file() and not vnode.is_dir()


def test_directory_lookup():
    directory = Vnode(Fid(1, 1, 1), ObjectType.DIRECTORY)
    child = Fid(1, 2, 2)
    directory.children["kid"] = child
    assert directory.lookup("kid") == child
    assert directory.lookup("ghost") is None


def test_lookup_on_file_raises():
    vnode = Vnode(Fid(1, 1, 1), ObjectType.FILE)
    with pytest.raises(NotADirectoryError):
        vnode.lookup("x")


def test_status_block():
    vnode = Vnode(Fid(1, 1, 1), ObjectType.FILE, content=Content.of(b"xy"))
    status = vnode.status()
    assert status.fid == vnode.fid
    assert status.length == 2
    assert status.version == 1
    assert status.wire_size == 100   # "about 100 bytes long"


def test_clone_is_independent():
    directory = Vnode(Fid(1, 1, 1), ObjectType.DIRECTORY)
    directory.children["a"] = Fid(1, 2, 2)
    twin = directory.clone()
    twin.children["b"] = Fid(1, 3, 3)
    assert "b" not in directory.children
    assert twin.version == directory.version


# ------------------------------------------------------------- volumes

def test_volume_has_root_directory():
    volume = Volume(7, "u.alice")
    assert volume.root.is_dir()
    assert volume.get(volume.root_fid) is volume.root
    assert volume.stamp == 1


def test_bump_increments_object_and_volume_stamps():
    volume = Volume(7, "u.alice")
    vnode = Vnode(volume.alloc_fid(), ObjectType.FILE)
    volume.add(vnode)
    before = (vnode.version, volume.stamp)
    volume.bump(vnode, mtime=9.0)
    assert vnode.version == before[0] + 1
    assert volume.stamp == before[1] + 1
    assert vnode.mtime == 9.0


def test_alloc_fid_unique():
    volume = Volume(7, "v")
    fids = {volume.alloc_fid() for _ in range(100)}
    assert len(fids) == 100
    assert all(fid.volume == 7 for fid in fids)


def test_add_foreign_fid_rejected():
    volume = Volume(7, "v")
    with pytest.raises(ValueError):
        volume.add(Vnode(Fid(8, 1, 1), ObjectType.FILE))


def test_require_raises_for_missing():
    volume = Volume(7, "v")
    with pytest.raises(KeyError):
        volume.require(Fid(7, 99, 99))


# ----------------------------------------------------------- namespace

def test_split_path_normalizes():
    assert split_path("/coda//usr/alice/") == ["coda", "usr", "alice"]
    assert split_path("") == []


def mounted_client(registry):
    """A client that has learned ``registry``'s mount points."""
    venus = make_testbed(ETHERNET).venus
    venus.learn_mounts(registry)
    return venus


def test_registry_longest_prefix_wins():
    registry = VolumeRegistry()
    outer = Volume(1, "outer")
    inner = Volume(2, "inner")
    registry.mount("/coda", outer)
    registry.mount("/coda/usr/alice", inner)
    venus = mounted_client(registry)
    (volid, _root), rest, prefix = venus._mount_for("/coda/usr/alice/doc.txt")
    assert volid == inner.volid and rest == ("doc.txt",)
    assert prefix == "/coda/usr/alice"
    (volid, _root), rest, prefix = venus._mount_for("/coda/misc/x")
    assert volid == outer.volid and rest == ("misc", "x")


def test_registry_no_mount_raises():
    venus = mounted_client(VolumeRegistry())
    with pytest.raises(FileNotFoundError):
        venus._mount_for("/elsewhere")


def test_registry_duplicate_mount_rejected():
    registry = VolumeRegistry()
    registry.mount("/coda", Volume(1, "v"))
    with pytest.raises(ValueError):
        registry.mount("/coda", Volume(2, "w"))


def test_registry_by_id_and_mount_of():
    registry = VolumeRegistry()
    volume = Volume(5, "v")
    registry.mount("/coda/v", volume)
    assert registry.by_id(5) is volume
    assert registry.mount_of(volume) == ("coda", "v")
    with pytest.raises(KeyError):
        registry.by_id(6)
    with pytest.raises(KeyError) as missing:
        registry.mount_of(Volume(5, "unmounted"))
    assert missing.value.args == ("unmounted",)


def test_registry_lookups_answer_the_first_mount():
    """``by_id`` and ``mount_of`` are index lookups that agree with a
    scan of the mount table in mount order: the first volume mounted
    with an id wins, and so does a volume's first prefix."""
    registry = VolumeRegistry()
    first, second = Volume(7, "first"), Volume(7, "second")
    registry.mount("/coda/b", first)
    registry.mount("/coda/a", second)
    registry.mount("/coda/c", first)
    assert registry.by_id(7) is first
    assert registry.mount_of(first) == ("coda", "b")
    assert registry.mount_of(second) == ("coda", "a")
    with pytest.raises(ValueError):
        registry.mount("/coda/a", Volume(8, "late"))
    with pytest.raises(KeyError):
        registry.by_id(8)
