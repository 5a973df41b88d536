"""Edge cases across the Venus surface."""

import pytest

from repro.net import MODEM
from repro.venus import CacheMissError, VenusConfig

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


# -------------------------------------------------------------- writes

def test_write_to_directory_path_rejected(testbed):
    connected(testbed)
    with pytest.raises(IsADirectoryError):
        testbed.run(testbed.venus.write_file(M + "/dir", b"x"))


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
    programs = [m.program for m in venus.misses.drain()]
    assert programs == ["latex", "gcc"]

