"""Cache manager: space, eviction, validity flags."""

import pytest

from repro.fs import Fid, ObjectType, SyntheticContent
from repro.venus import CacheEntry, CacheManager, NoSpaceError
from repro.venus.cache import ENTRY_OVERHEAD


def entry(n, size=0, volume=1, priority=0):
    e = CacheEntry(Fid(volume, n, n), ObjectType.FILE)
    e.content = SyntheticContent(size)
    e.length = size
    e.hoard_priority = priority
    return e


def test_space_accounting():
    cache = CacheManager(capacity_bytes=100_000)
    cache.add(entry(1, 10_000), now=0.0)
    assert cache._used_bytes == ENTRY_OVERHEAD + 10_000


def test_eviction_frees_space_for_new_entries():
    cache = CacheManager(capacity_bytes=3 * (ENTRY_OVERHEAD + 10_000))
    for n in range(3):
        cache.add(entry(n, 10_000), now=float(n))
    cache.add(entry(99, 10_000), now=10.0)
    assert len(cache) == 3
    assert cache.evictions == 1
    assert cache.get(Fid(1, 0, 0)) is None      # LRU victim


def test_hoarded_entries_evicted_last():
    cache = CacheManager(capacity_bytes=3 * (ENTRY_OVERHEAD + 10_000))
    hoarded = entry(1, 10_000, priority=500)
    cache.add(hoarded, now=0.0)                 # oldest but hoarded
    cache.add(entry(2, 10_000), now=1.0)
    cache.add(entry(3, 10_000), now=2.0)
    cache.add(entry(4, 10_000), now=3.0)
    assert cache.get(hoarded.fid) is hoarded
    assert cache.get(Fid(1, 2, 2)) is None


def test_dirty_and_local_entries_never_evicted():
    cache = CacheManager(capacity_bytes=2 * (ENTRY_OVERHEAD + 10_000))
    dirty = entry(1, 10_000)
    dirty.dirty = True
    local = entry(2, 10_000)
    local.local = True
    cache.add(dirty, now=0.0)
    cache.add(local, now=1.0)
    with pytest.raises(NoSpaceError):
        cache.add(entry(3, 10_000), now=2.0)
    assert cache.get(dirty.fid) and cache.get(local.fid)


def test_object_too_big_for_cache():
    cache = CacheManager(capacity_bytes=1000)
    with pytest.raises(NoSpaceError):
        cache.ensure_space(2000)


def test_touch_updates_recency():
    cache = CacheManager(capacity_bytes=2 * (ENTRY_OVERHEAD + 10_000))
    oldest = entry(1, 10_000)
    cache.add(oldest, now=0.0)
    cache.add(entry(2, 10_000), now=1.0)
    cache.touch(oldest, now=5.0)        # refresh: now entry 2 is LRU
    cache.add(entry(3, 10_000), now=6.0)
    assert cache.get(oldest.fid) is not None
    assert cache.get(Fid(1, 2, 2)) is None


def test_validity_via_object_callback():
    cache = CacheManager()
    e = entry(1)
    e.callback = True
    cache.add(e, now=0.0)
    assert cache.is_valid(e)
    cache.break_object(e.fid)
    assert not cache.is_valid(e)


def test_validity_via_volume_callback():
    cache = CacheManager()
    e = entry(1, volume=7)
    cache.add(e, now=0.0)
    assert not cache.is_valid(e)
    info = cache.volume_info(7)
    info.stamp = 41
    info.callback = True
    assert cache.is_valid(e)


def test_volume_break_drops_stamp_too():
    """Once broken, the stamp is stale and must be re-acquired."""
    cache = CacheManager()
    info = cache.volume_info(7)
    info.stamp = 41
    info.callback = True
    cache.break_volume(7)
    assert info.stamp is None
    assert not info.callback


def test_object_callback_survives_volume_break():
    cache = CacheManager()
    e = entry(1, volume=7)
    e.callback = True
    cache.add(e, now=0.0)
    info = cache.volume_info(7)
    info.callback = True
    cache.break_volume(7)
    assert cache.is_valid(e)     # falls back on the object callback


def test_disconnection_drops_callbacks_keeps_stamps():
    cache = CacheManager()
    e = entry(1, volume=7)
    e.callback = True
    cache.add(e, now=0.0)
    info = cache.volume_info(7)
    info.stamp = 41
    info.callback = True
    cache.drop_all_callbacks()
    assert not e.callback
    assert not info.callback
    assert info.stamp == 41      # the whole point of rapid validation


def test_local_entries_always_valid():
    cache = CacheManager()
    e = entry(1)
    e.local = True
    cache.add(e, now=0.0)
    assert cache.is_valid(e)


def test_entries_in_volume():
    cache = CacheManager()
    cache.add(entry(1, volume=1), now=0.0)
    cache.add(entry(2, volume=2), now=0.0)
    cache.add(entry(3, volume=1), now=0.0)
    assert len(cache.entries_in_volume(1)) == 2
