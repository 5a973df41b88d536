"""Edge cases across the Venus surface."""

import pytest

from repro.fs import Fid, SyntheticContent
from repro.net import MODEM
from repro.venus import CacheMissError, CmlOp, CmlRecord, VenusConfig
from repro.venus.cml import ClientModifyLog

from tests.conftest import build_testbed, connected

M = "/coda/usr/u"


# ------------------------------------------------------------- resolve

def test_path_through_file_raises_notadirectory(testbed):
    connected(testbed)
    with pytest.raises(NotADirectoryError):
        testbed.run(testbed.venus.read_file(M + "/dir/a.txt/oops"))


def test_missing_intermediate_directory(testbed):
    connected(testbed)
    with pytest.raises(FileNotFoundError):
        testbed.run(testbed.venus.read_file(M + "/ghost/deeper/x"))


def test_unmounted_path_rejected(testbed):
    connected(testbed)
    with pytest.raises(FileNotFoundError):
        testbed.run(testbed.venus.read_file("/elsewhere/x"))


def test_mount_root_itself_resolves(testbed):
    connected(testbed)
    names = testbed.run(testbed.venus.readdir(M))
    assert names == ["dir"]


def test_cross_volume_rename_rejected():
    from repro.spec.testbed import make_testbed, populate_volume, warm_cache
    from repro.net import ETHERNET
    testbed = make_testbed(ETHERNET)
    for mount in ("/coda/v1", "/coda/v2"):
        volume = populate_volume(testbed.server, mount,
                                 {mount + "/d": ("dir", 0),
                                  mount + "/d/f": ("file", 100)})
        warm_cache(testbed.venus, testbed.server, volume)
    connected(testbed)
    with pytest.raises(OSError, match="cross-volume"):
        testbed.run(testbed.venus.rename("/coda/v1/d/f", "/coda/v2/d/g"))


# -------------------------------------------------------------- writes

def test_write_to_directory_path_rejected(testbed):
    connected(testbed)
    with pytest.raises(IsADirectoryError):
        testbed.run(testbed.venus.write_file(M + "/dir", b"x"))


def test_rename_onto_existing_name_rejected(testbed):
    connected(testbed)
    with pytest.raises(FileExistsError):
        testbed.run(testbed.venus.rename(M + "/dir/a.txt",
                                         M + "/dir/b.txt"))


def test_mkdir_over_existing_rejected(testbed):
    connected(testbed)
    with pytest.raises(FileExistsError):
        testbed.run(testbed.venus.mkdir(M + "/dir"))


def test_unlink_directory_rejected(testbed):
    connected(testbed)
    with pytest.raises(IsADirectoryError):
        testbed.run(testbed.venus.unlink(M + "/dir"))


def test_empty_write_creates_empty_file(testbed):
    connected(testbed)
    testbed.run(testbed.venus.write_file(M + "/dir/empty", b""))
    content = testbed.run(testbed.venus.read_file(M + "/dir/empty"))
    assert content.size == 0


def test_open_read_mode_rejects_write(testbed):
    connected(testbed)
    venus = testbed.venus

    def session():
        handle = yield from venus.open(M + "/dir/a.txt", "r")
        try:
            handle.write(b"nope")
        finally:
            yield from venus.close(handle)

    with pytest.raises(PermissionError):
        testbed.run(session())


def test_double_close_is_harmless(testbed):
    connected(testbed)
    venus = testbed.venus

    def session():
        handle = yield from venus.open(M + "/dir/a.txt", "r")
        yield from venus.close(handle)
        yield from venus.close(handle)
        return handle.entry.pins

    assert testbed.run(session()) == 0


# ------------------------------------------------- CML rename chains

def fidn(n):
    return Fid(1, n, n)


def test_rename_chain_then_unlink_stays_conservative():
    cml = ClientModifyLog()
    parent = fidn(1)
    f = fidn(2)
    cml.append(CmlRecord(op=CmlOp.CREATE, fid=f, parent=parent,
                         name="a"), 0.0)
    cml.append(CmlRecord(op=CmlOp.RENAME, fid=f, parent=parent, name="a",
                         to_parent=parent, to_name="b"), 1.0)
    cml.append(CmlRecord(op=CmlOp.RENAME, fid=f, parent=parent, name="b",
                         to_parent=parent, to_name="c"), 2.0)
    appended = cml.append(CmlRecord(op=CmlOp.UNLINK, fid=f, parent=parent,
                                    name="c"), 3.0)
    # Renames block identity cancellation: everything ships.
    assert appended
    assert len(cml) == 4


def test_store_after_rename_still_overwritten():
    cml = ClientModifyLog()
    parent = fidn(1)
    f = fidn(2)
    cml.append(CmlRecord(op=CmlOp.STORE, fid=f,
                         content=SyntheticContent(5_000)), 0.0)
    cml.append(CmlRecord(op=CmlOp.RENAME, fid=f, parent=parent, name="a",
                         to_parent=parent, to_name="b"), 1.0)
    cml.append(CmlRecord(op=CmlOp.STORE, fid=f,
                         content=SyntheticContent(100)), 2.0)
    stores = [r for r in cml.records if r.op is CmlOp.STORE]
    assert len(stores) == 1
    assert stores[0].content.size == 100


# --------------------------------------------------- misses & advice

def test_review_misses_with_nothing_pending(testbed):
    connected(testbed)
    additions = testbed.run(testbed.venus.review_misses())
    assert additions == []


def test_miss_log_counts_multiple_programs():
    config = VenusConfig(start_daemons=False)
    testbed = build_testbed(profile=MODEM, venus_config=config)
    connected(testbed)
    venus = testbed.venus
    entry = testbed.run(venus.stat(M + "/dir/big.bin"))
    venus.cache.remove(entry.fid)
    for program in ("latex", "gcc"):
        with pytest.raises(CacheMissError):
            testbed.run(venus.read_file(M + "/dir/big.bin",
                                        program=program))
    programs = [m.program for m in venus.misses.peek()]
    assert programs == ["latex", "gcc"]


def test_subtree_sync_of_clean_subtree_with_dirty_sibling():
    config = VenusConfig(aging_window=3600.0)
    testbed = build_testbed(profile=MODEM, venus_config=config)
    connected(testbed)
    venus = testbed.venus
    testbed.run(venus.mkdir(M + "/quiet"))
    testbed.run(venus.write_file(M + "/dir/busy.txt", b"pending"))
    # Syncing the freshly made (dirty) quiet dir ships its mkdir but
    # not the sibling's store.
    ok = testbed.run(venus.sync_subtree(M + "/quiet"))
    assert ok
    remaining_ops = [r.op for r in venus.cml.records]
    assert CmlOp.MKDIR not in remaining_ops
    assert CmlOp.STORE in remaining_ops
