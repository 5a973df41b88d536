"""The one hit check equals the composition it replaced.

``CacheManager.usable`` is the single test every cached reference
takes.  It replaced a seven-call composition — ``cache.get``,
``has_data``, ``state.connected``, ``is_valid``, ``local``, ``touch``
and the observability call — which lives on here as the oracle.  Over
random entry states (local or not, object callback, volume callback
on, off or absent, any mix of content and children, every
Venus state, data wanted or not) the verdicts must agree, and a hit
must leave the recency clock, ``last_ref`` and ``stats.operations``
exactly where the old arm left them.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fs.content import Content
from repro.fs.fid import Fid
from repro.fs.objects import ObjectType
from repro.venus import VenusConfig, VenusState
from repro.venus.cache import CacheEntry, CacheManager
from repro.venus.states import VenusStateMachine

from tests.conftest import build_testbed

M = "/coda/usr/u"
VOLUME = 7

entry_states = st.fixed_dictionaries({
    "local": st.booleans(),
    "callback": st.booleans(),
    "volume_callback": st.sampled_from(["on", "off", "absent"]),
    "content": st.booleans(),
    "children": st.booleans(),
})


def old_verdict(cache, entry, state, want_data):
    """The retired ``_reference_cached`` test, through the public API."""
    connected = VenusStateMachine(initial=state).connected
    return ((entry.has_data or not want_data)
            and (not connected or cache.is_valid(entry)))


def shape(entry, cache, spec):
    entry.local = spec["local"]
    entry.callback = spec["callback"]
    entry.content = Content.empty() if spec["content"] else None
    entry.children = {"x": Fid(VOLUME, 9, 9)} if spec["children"] else None
    if spec["volume_callback"] != "absent":
        cache.volume_info(entry.fid.volume).callback = \
            spec["volume_callback"] == "on"


@settings(max_examples=300)
@given(spec=entry_states, state=st.sampled_from(list(VenusState)),
       want_data=st.booleans(), resident=st.booleans(),
       now=st.floats(min_value=1.0, max_value=1e6))
def test_verdict_and_touch_match_the_old_composition(spec, state, want_data,
                                                      resident, now):
    cache = CacheManager()
    entry = CacheEntry(Fid(VOLUME, 1, 1), ObjectType.DIRECTORY, path=M)
    if resident:
        cache.add(entry, 0.0)
    shape(entry, cache, spec)
    connected = VenusStateMachine(initial=state).connected
    hits = resident and old_verdict(cache, entry, state, want_data)
    clock = cache._ref_clock
    # Without ``now`` the check is a pure predicate.
    found = cache.usable(entry.fid, connected, want_data)
    assert found is (entry if hits else None)
    assert (cache._ref_clock, entry.last_ref) == (clock, 0.0)
    # With ``now`` a hit is also the old arm's touch; a miss touches
    # nothing.
    found = cache.usable(entry.fid, connected, want_data, now=now)
    assert found is (entry if hits else None)
    if hits:
        assert (cache._ref_clock, entry.last_ref) == (clock + 1, now)
    else:
        assert (cache._ref_clock, entry.last_ref) == (clock, 0.0)


@pytest.fixture(scope="module")
def shared_testbed():
    """One testbed for every example; each restores what it changes."""
    return build_testbed(venus_config=VenusConfig(
        start_daemons=False, force_write_disconnected=True))


@settings(max_examples=150)
@given(spec=entry_states, state=st.sampled_from(list(VenusState)))
def test_the_walk_counts_a_hit_once_and_hands_a_miss_on(shared_testbed,
                                                        spec, state):
    """The walk's reference of the mount root against the old arm: on a
    hit one counted operation and one touch at the current time; on a
    miss nothing before ``_demand_miss`` (which counts it itself)."""
    testbed = shared_testbed
    venus, cache = testbed.venus, testbed.venus.cache
    root = cache.get(testbed.volume.root_fid)
    saved = (root._local, root.callback, root._content, root.children,
             root.last_ref, venus.state.state,
             {vid: info.callback for vid, info
              in cache.volume_infos().items()})
    volume_infos = cache._volumes
    misses = []

    def demand_miss(fid, path, program=None, entry=None, want_data=True):
        misses.append((fid, path))
        return root
        yield

    venus._demand_miss = demand_miss
    try:
        if spec["volume_callback"] == "absent":
            cache._volumes = {}
        shape(root, cache, spec)
        venus.state.state = state
        hits = old_verdict(cache, root, state, want_data=True)
        operations, clock, last_ref = (venus.stats.operations,
                                       cache._ref_clock, root.last_ref)
        _parent, _name, found = testbed.run(venus._resolve(M))
        assert found is root
        if hits:
            assert misses == []
            assert (venus.stats.operations, cache._ref_clock,
                    root.last_ref) == (operations + 1, clock + 1,
                                       testbed.sim.now)
        else:
            assert misses == [(root.fid, M)]
            assert (venus.stats.operations, cache._ref_clock,
                    root.last_ref) == (operations, clock, last_ref)
    finally:
        del venus._demand_miss
        cache._volumes = volume_infos
        (root.local, root.callback, root.content, root.children,
         root.last_ref, venus.state.state, callbacks) = saved
        for vid, callback in callbacks.items():
            cache.volume_info(vid).callback = callback
