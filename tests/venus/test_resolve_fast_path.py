"""The generator-free resolve path: one hit check, mount memo, bounded state.

``Venus._lookup`` references the mount root and each directory on a
path through ``CacheManager.usable``, the cache's one hit check: a hit
is counted and observed where it happens, a miss goes to
``_demand_miss``, which counts it itself.  The retired
``_demand_object`` (the seven-call ``_reference_cached`` hit arm, then
the miss arm) lives on here as the oracle: both ways leave the same
statistics, recency clock and observability trail behind, for every
way a reference can turn out.
"""

import pytest

from repro.faults import restore_venus, snapshot_venus
from repro.obs import Observatory
from repro.venus import VenusConfig, VenusState
from repro.venus.errors import CacheMissError

from tests.conftest import build_testbed, connected

M = "/coda/usr/u"
A_TXT = M + "/dir/a.txt"


def _testbed(state):
    testbed = build_testbed(venus_config=VenusConfig(
        start_daemons=False, force_write_disconnected=True))
    if state is not VenusState.EMULATING:
        connected(testbed)
    assert testbed.venus.state.state is state
    return testbed


def retired_reference_cached(venus, fid, path, want_data=True):
    """The retired ``Venus._reference_cached``: verdict and hit effects.

    It counted every reference, hit or miss; a miss is now counted by
    ``_demand_miss``, so the count here is taken on a hit only.
    """
    entry = venus.cache.get(fid)
    if (entry is not None
            and (entry.has_data or not want_data)
            and (not venus.state.connected
                 or venus.cache.is_valid(entry))):
        venus.stats.operations += 1
        venus.cache.touch(entry, venus.sim.now)
        venus._observe_reference(hit=True, path=path)
        return entry
    return None


def retired_demand_object(venus, fid, path, want_data=True):
    """Generator: the retired ``Venus._demand_object``."""
    hit = retired_reference_cached(venus, fid, path, want_data)
    if hit is not None:
        return hit
    return (yield from venus._demand_miss(fid, path, want_data=want_data))


def _make_stale(venus, entry):
    entry.callback = False
    venus.cache.volume_info(entry.fid.volume).drop()


def _drop_data(venus, entry):
    entry.content = None


CASES = {
    # name: (state, prepare(venus, entry), want_data, helper hits?)
    "hit": (VenusState.WRITE_DISCONNECTED, None, True, True),
    "hit-emulating": (VenusState.EMULATING, None, True, True),
    "stale": (VenusState.WRITE_DISCONNECTED, _make_stale, True, False),
    "status-only-wanted": (VenusState.WRITE_DISCONNECTED, _drop_data,
                           False, True),
    "status-only-needs-data": (VenusState.WRITE_DISCONNECTED, _drop_data,
                               True, False),
    "emulating-without-data": (VenusState.EMULATING, _drop_data, True,
                               False),
}


def _reference(case, by_halves):
    """Reference a.txt one way or the other; return everything observable."""
    state, prepare, want_data, helper_hits = CASES[case]
    testbed = _testbed(state)
    venus = testbed.venus
    entry = testbed.run(venus.stat(A_TXT))
    if prepare is not None:
        prepare(venus, entry)
    observatory = Observatory(testbed.sim)
    operations = venus.stats.operations
    clock = venus.cache._ref_clock

    def halves():
        # What _lookup does per walked component.
        found = venus.cache.usable(entry.fid, venus.state.connected,
                                   want_data, now=testbed.sim.now)
        assert (found is not None) == helper_hits
        if found is None:
            # A miss costs the check nothing: no count, no recency
            # bump, no observability event.
            assert venus.stats.operations == operations
            assert venus.cache._ref_clock == clock
            assert not observatory.trace.events
            found = yield from venus._demand_miss(
                entry.fid, A_TXT, want_data=want_data)
        else:
            venus.stats.operations += 1
            venus._observe_reference(hit=True, path=A_TXT)
        return found

    found = testbed.run(halves() if by_halves else retired_demand_object(
        venus, entry.fid, A_TXT, want_data=want_data))
    return {
        "fid": found.fid,
        "has_data": found.has_data,
        "last_ref": found.last_ref,
        "now": testbed.sim.now,
        "dispatched": testbed.sim.dispatched,
        "stats": dict(vars(venus.stats)),
        "ref_clock": venus.cache._ref_clock - clock,
        "events": [event.to_row() for event in observatory.trace.events],
        "metrics": observatory.metrics.rows(),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_helper_then_miss_arm_equals_demand_object(case):
    halves = _reference(case, by_halves=True)
    whole = _reference(case, by_halves=False)
    assert halves == whole
    kinds = [row["kind"] for row in whole["events"]]
    if CASES[case][3] or case == "emulating-without-data":
        assert kinds == ["cache_hit"]
        assert whole["ref_clock"] == 1
    else:
        assert kinds[0] == "cache_miss"


def _miss_absent_object(by_halves):
    testbed = _testbed(VenusState.EMULATING)
    venus = testbed.venus
    entry = testbed.run(venus.stat(A_TXT))
    venus.cache.remove(entry.fid)
    observatory = Observatory(testbed.sim)

    def halves():
        assert venus.cache.usable(entry.fid, venus.state.connected,
                                  now=testbed.sim.now) is None
        yield from venus._demand_miss(entry.fid, A_TXT)

    with pytest.raises(CacheMissError):
        testbed.run(halves() if by_halves
                    else retired_demand_object(venus, entry.fid, A_TXT))
    return (dict(vars(venus.stats)), len(venus.misses),
            [event.to_row() for event in observatory.trace.events])


def test_absent_object_misses_the_same_way_while_emulating():
    halves = _miss_absent_object(by_halves=True)
    assert halves == _miss_absent_object(by_halves=False)
    stats, missed, events = halves
    assert stats["misses_disconnected"] == missed == 1
    assert [row["kind"] for row in events] == ["cache_miss"]


def test_cached_path_resolves_without_a_generator_per_component(testbed):
    venus = testbed.venus
    created = []
    original = venus._demand_miss

    def counting_miss(*args, **kwargs):
        created.append(args[:2])
        return original(*args, **kwargs)

    venus._demand_miss = counting_miss
    operations = venus.stats.operations
    entry = testbed.run(venus.stat(A_TXT))
    assert entry.path == A_TXT
    assert created == []
    # mount root + "dir" (both referenced by the hit check in
    # _lookup).  The final component is checked, not referenced: a
    # hit there neither counts nor touches it.
    assert venus.stats.operations == operations + 2


# ---------------------------------------------------------------------------
# Mount memo


def test_mount_memo_returns_what_the_scan_returned(testbed):
    venus = testbed.venus
    first = venus._mount_for(A_TXT)
    (volid, root_fid), parts, prefix = first
    assert (volid, root_fid) == (testbed.volume.volid,
                                 testbed.volume.root_fid)
    assert (tuple(parts), prefix) == (("dir", "a.txt"), M)
    assert venus._mount_for(A_TXT) is first
    assert venus._mount_for(M) == ((volid, root_fid), (), M)
    with pytest.raises(FileNotFoundError, match="no volume mounted"):
        venus._mount_for("/elsewhere/x")
    assert "/elsewhere/x" not in venus._mount_memo


def test_learn_mounts_invalidates_the_mount_memo(testbed):
    from repro.bench.common import populate_volume
    venus = testbed.venus
    inner = M + "/dir"
    before = venus._mount_for(inner + "/a.txt")
    assert before[2] == M
    # A volume mounted *below* a memoised path must win from now on.
    volume = populate_volume(testbed.server, inner,
                             {inner + "/a.txt": ("file", 10)})
    venus.learn_mounts(testbed.server.registry)
    assert venus._mount_memo == {}
    (volid, root_fid), parts, prefix = venus._mount_for(inner + "/a.txt")
    assert (volid, root_fid) == (volume.volid, volume.root_fid)
    assert (tuple(parts), prefix) == (("a.txt",), inner)


def test_snapshot_restore_starts_with_an_empty_mount_memo(testbed):
    venus = testbed.venus
    venus._mount_for(A_TXT)
    snapshot = snapshot_venus(venus)
    venus.crash()
    revived = restore_venus(snapshot, testbed.sim, testbed.net,
                            venus.endpoint.host)
    assert revived._mounts == venus._mounts
    assert revived._mount_memo == {}
    assert revived._mount_for(A_TXT) == venus._mount_for(A_TXT)
    revived.restore_mounts({})
    assert revived._mount_memo == {}
    with pytest.raises(FileNotFoundError):
        revived._mount_for(A_TXT)


def test_hoard_of_unmounted_path_still_raises(testbed):
    with pytest.raises(FileNotFoundError, match="no volume mounted"):
        testbed.venus.hoard("/elsewhere/x", 500)


def test_hoard_raises_cached_priorities_under_the_new_entry(testbed):
    venus = testbed.venus
    venus.hoard(M + "/dir", 700, children=True)
    by_path = {e.path: e.hoard_priority for e in venus.cache.entries()}
    assert by_path[A_TXT] == 700
    assert by_path[M + "/dir"] == 700
    assert by_path[M] == 0


# ---------------------------------------------------------------------------
# The dirty-flag bookkeeping stays empty on a client that never logs


def test_read_only_client_accumulates_no_dirty_bookkeeping():
    testbed = build_testbed(warm=False)
    venus = testbed.venus
    connected(testbed)
    for name in ("a.txt", "b.txt", "big.bin"):
        testbed.run(venus.read_file(M + "/dir/" + name))
    assert venus.stats.fetches >= 4       # every insert came from a fetch
    assert venus.cache._unrefreshed == []
    assert not venus.cml.take_changed_fids()
    assert not venus.cml.logged_fids
