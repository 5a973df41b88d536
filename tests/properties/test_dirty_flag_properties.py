"""Incremental dirty flags equal the full rescan at every refresh point.

``CacheEntry.dirty`` means "the CML holds a record acting on my fid".
Venus used to recompute it for the whole cache from the whole log at
each refresh point; it now touches only the fids whose log membership
changed and the entries inserted since (``ClientModifyLog``'s per-fid
record counts, ``CacheManager.refresh_dirty``).  The old full scan
lives on here as the oracle: whatever a session does — log, optimize
records away, commit, abort, conflict out, evict and refetch, crash
and restore — every flag must read what the full scan would have
written at that same refresh point.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.faults import restore_venus, snapshot_venus
from repro.fs.content import SyntheticContent
from repro.net import ETHERNET
from repro.spec.testbed import make_testbed, populate_volume, warm_cache
from repro.venus import VenusConfig, VenusState
from repro.venus.errors import CacheMissError, NoSpaceError, OfflineError

MOUNT = "/coda/usr/prop"
NAMES = ["a", "b", "c", "d", "e"]
TOLERATED = (OSError, CacheMissError, NoSpaceError, OfflineError)


def full_scan_dirty(venus):
    """The retired ``Venus._refresh_dirty``, as a pure function."""
    dirty_fids = set()
    for record in venus.cml:
        dirty_fids.add(record.fid)
    return {entry.fid: entry.fid in dirty_fids
            for entry in venus.cache.iter_entries()}


class Checked:
    """A testbed whose every dirty refresh is compared with the oracle."""

    def __init__(self):
        # A cache far smaller than the tree: reads evict clean entries
        # (directories included) and later references refetch them.
        config = VenusConfig(start_daemons=False, aging_window=0.0,
                             force_write_disconnected=True,
                             patience_alpha=1e9, cache_capacity=24_000)
        self.testbed = make_testbed(ETHERNET, venus_config=config, seed=7)
        tree = {MOUNT + "/work": ("dir", 0)}
        for index, name in enumerate(NAMES[:3]):
            tree["%s/work/%s" % (MOUNT, name)] = ("file", 5_000 + index)
        self.volume = populate_volume(self.testbed.server, MOUNT, tree)
        warm_cache(self.testbed.venus, self.testbed.server, self.volume)
        self.refreshes = 0
        self.adopt(self.testbed.venus)
        self.connect()

    @property
    def venus(self):
        return self.testbed.venus

    def adopt(self, venus):
        self.testbed.venus = venus
        refresh = venus._refresh_dirty

        def checked_refresh():
            refresh()
            self.check()

        venus._refresh_dirty = checked_refresh
        self.check()

    def check(self):
        venus = self.venus
        self.refreshes += 1
        actual = {e.fid: e.dirty for e in venus.cache.iter_entries()}
        assert actual == full_scan_dirty(venus)
        assert venus.cml._fid_refs == Counter(r.fid for r in venus.cml)

    def run(self, generator):
        try:
            return self.testbed.run(generator)
        except TOLERATED:
            return None

    def connect(self):
        self.testbed.link.set_up(True)
        if self.venus.state.state is VenusState.EMULATING:
            self.run(self.venus.connect())

    # -- the session alphabet ----------------------------------------------

    def path(self, index):
        return "%s/work/%s" % (MOUNT, NAMES[index % len(NAMES)])

    def write(self, index, size):
        self.run(self.venus.write_file(
            self.path(index), SyntheticContent(size, tag=("w", index, size))))

    def read(self, index, _size):
        self.run(self.venus.read_file(self.path(index)))

    def unlink(self, index, _size):
        self.run(self.venus.unlink(self.path(index)))

    def mkdir(self, index, _size):
        self.run(self.venus.mkdir(self.path(index)))

    def rmdir(self, index, _size):
        self.run(self.venus.rmdir(self.path(index)))

    def commit(self, _index, _size):
        """Trickle everything out: commit, or conflict-and-discard."""
        self.connect()
        self.run(self.venus.sync())

    def bump(self, index, _size):
        """Another client updates the file at the server: the next
        reintegration of our records for it conflicts and discards."""
        work = self.volume.get(self.volume.root.lookup("work"))
        fid = work.lookup(NAMES[index % len(NAMES)])
        if fid is not None:
            self.volume.bump(self.volume.get(fid), self.testbed.sim.now)

    def abort(self, _index, _size):
        """The link dies under a reintegration: abort, no refresh."""
        if self.venus.state.state is VenusState.EMULATING:
            return
        self.testbed.link.set_up(False)
        aborts = self.venus.trickle.stats.aborts
        self.run(self.venus.sync())
        if len(self.venus.cml):
            assert self.venus.trickle.stats.aborts == aborts + 1
        self.connect()

    def reinsert(self, index, size):
        """An insert whose flag disagrees with the log (what a status
        refetch of a logged fid, or a restored snapshot, amounts to):
        the full scan fixed such an entry at the next refresh point."""
        cache = self.venus.cache
        path = self.path(index)
        for entry in cache.entries():
            if entry.path == path:
                cache.remove(entry.fid)
                entry.dirty = bool(size % 2)
                cache.adopt(entry)
                break

    def offline(self, _index, _size):
        self.testbed.link.set_up(False)
        self.venus.handle_disconnection()

    def crash(self, _index, _size):
        venus = self.venus
        snapshot = snapshot_venus(venus)
        venus.crash()
        self.adopt(restore_venus(snapshot, self.testbed.sim,
                                 self.testbed.net, venus.endpoint.host))


OPS = ("write", "write", "read", "read", "unlink", "mkdir", "rmdir",
       "commit", "bump", "abort", "offline", "crash", "reinsert")

sessions = st.lists(
    st.tuples(st.sampled_from(OPS),
              st.integers(min_value=0, max_value=len(NAMES) - 1),
              st.integers(min_value=0, max_value=9_000)),
    min_size=1, max_size=25)


@settings(max_examples=60, deadline=None)
@given(sessions)
def test_dirty_flags_match_the_full_scan_at_every_refresh(session):
    checked = Checked()
    for op, index, size in session:
        getattr(checked, op)(index, size)
    checked.commit(0, 0)
    checked.venus._refresh_dirty()


def test_session_alphabet_reaches_every_cml_exit():
    """The property is only as good as its reach: one scripted session
    must really log, optimize away, commit, abort, discard, evict,
    refetch and restore."""
    checked = Checked()
    venus = checked.venus
    evictions = venus.cache.evictions
    checked.write(3, 4_000)             # create + store
    checked.write(3, 6_000)             # store cancels store
    checked.write(4, 100)
    checked.unlink(4, 0)                # identity cancellation
    assert venus.cml.stats.optimized_records >= 3
    checked.write(0, 7_000)
    checked.abort(0, 0)
    assert venus.trickle.stats.aborts == 1 and len(venus.cml) > 0
    checked.bump(0, 0)
    checked.commit(0, 0)                # a.txt conflicts out, rest commits
    assert len(venus.conflicts) == 1
    assert venus.cml.stats.reintegrated_records >= 2
    assert len(venus.cml) == 0
    for index in range(4):
        checked.read(index, 0)
    assert venus.cache.evictions > evictions
    assert venus.stats.fetches > 0
    checked.write(1, 7)
    checked.reinsert(1, 0)              # logged fid, inserted clean
    assert len(checked.venus.cache._unrefreshed) == 1
    checked.write(2, 7)
    assert checked.venus.cache._unrefreshed == []
    checked.crash(0, 0)
    assert checked.venus is not venus
    assert {e.fid for e in checked.venus.cache.iter_entries() if e.dirty} \
        == {r.fid for r in checked.venus.cml} != set()
    checked.commit(0, 0)
    assert len(checked.venus.cml) == 0
    assert checked.refreshes > 10
