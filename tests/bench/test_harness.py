"""Bench harness utilities: population, warming, tables."""

import pytest

from repro.bench import Table, fmt_bytes
from repro.fs import ObjectType
from repro.net import ETHERNET
from repro.spec.testbed import make_testbed, populate_volume, warm_cache

from tests.conftest import has_callback


def test_populate_creates_intermediate_dirs():
    testbed = make_testbed(ETHERNET)
    tree = {"/coda/x/a/b/c/file.txt": ("file", 123)}
    volume = populate_volume(testbed.server, "/coda/x", tree)
    a = volume.require(volume.root.lookup("a"))
    b = volume.require(a.lookup("b"))
    c = volume.require(b.lookup("c"))
    f = volume.require(c.lookup("file.txt"))
    assert f.otype is ObjectType.FILE
    assert f.length == 123
    assert len(volume.vnodes) == 5       # root + a + b + c + file


def test_populate_is_idempotent_per_path():
    testbed = make_testbed(ETHERNET)
    tree = {"/coda/x/d": ("dir", 0),
            "/coda/x/d/f": ("file", 10)}
    volume = populate_volume(testbed.server, "/coda/x", tree)
    assert len(volume.vnodes) == 3


def test_warm_cache_mirrors_volume():
    testbed = make_testbed(ETHERNET)
    tree = {"/coda/x/d": ("dir", 0),
            "/coda/x/d/f": ("file", 10)}
    volume = populate_volume(testbed.server, "/coda/x", tree)
    warm_cache(testbed.venus, testbed.server, volume)
    cache = testbed.venus.cache
    assert len(cache) == len(volume.vnodes)
    for fid, vnode in volume.vnodes.items():
        entry = cache.get(fid)
        assert entry is not None
        assert entry.version == vnode.version
        assert entry.callback
        assert cache.is_valid(entry)
    info = cache.volume_info(volume.volid)
    assert info.stamp == volume.stamp
    assert has_callback(testbed.server.callbacks, testbed.venus.node,
                        volume.volid)


def test_warm_cache_reconstructs_paths():
    testbed = make_testbed(ETHERNET)
    tree = {"/coda/x/d": ("dir", 0), "/coda/x/d/f": ("file", 10)}
    volume = populate_volume(testbed.server, "/coda/x", tree)
    warm_cache(testbed.venus, testbed.server, volume)
    paths = {e.path for e in testbed.venus.cache.entries()}
    assert "/coda/x/d/f" in paths
    assert "/coda/x/d" in paths
    assert "/coda/x" in paths


def test_table_rendering_and_arity_check():
    table = Table("T", ["a", "bb"])
    table.add(1, "long-cell")
    rendered = table.render()
    assert "T" in rendered and "long-cell" in rendered
    assert rendered.splitlines()[1].startswith("a")
    with pytest.raises(ValueError):
        table.add(1)


def test_fmt_bytes():
    assert fmt_bytes(100) == "100 B"
    assert fmt_bytes(4 * 1024) == "4 KB"
    assert fmt_bytes(3 * 1024 * 1024) == "3.0 MB"
