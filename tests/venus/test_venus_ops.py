"""Venus file API across the three states."""

import pytest

from repro.fs import Content
from repro.sim import At
from repro.venus import CacheMissError, Venus, VenusState
from repro.venus.errors import OfflineError

from tests.conftest import build_testbed, connected


M = "/coda/usr/u"


def test_connect_reaches_hoarding_on_ethernet(testbed):
    assert connected(testbed) is VenusState.HOARDING


def test_read_from_warm_cache(testbed):
    connected(testbed)
    content = testbed.run(testbed.venus.read_file(M + "/dir/a.txt"))
    assert content.size == 4_000


def test_readdir_and_stat(testbed):
    connected(testbed)
    names = testbed.run(testbed.venus.readdir(M + "/dir"))
    assert names == ["a.txt", "b.txt", "big.bin"]
    entry = testbed.run(testbed.venus.stat(M + "/dir/b.txt"))
    assert entry.length == 12_000


def test_write_through_while_hoarding(testbed):
    connected(testbed)
    testbed.run(testbed.venus.write_file(M + "/dir/new.txt", b"fresh"))
    # Visible on the server immediately; nothing in the CML.
    fid = testbed.volume.root.lookup("dir")
    dir_vnode = testbed.volume.require(fid)
    new_fid = dir_vnode.lookup("new.txt")
    assert testbed.volume.require(new_fid).content == Content.of(b"fresh")
    assert len(testbed.venus.cml) == 0


def test_overwrite_bumps_server_version(testbed):
    connected(testbed)
    testbed.run(testbed.venus.write_file(M + "/dir/a.txt", b"v2!"))
    entry = testbed.run(testbed.venus.stat(M + "/dir/a.txt"))
    vnode = testbed.volume.require(entry.fid)
    assert vnode.version == 2
    assert entry.version == 2


@pytest.mark.parametrize("writes", [2, 3])
def test_connected_writes_of_one_path_serialize(testbed, writes):
    """Writes of ``/dir/w0`` armed for one instant by one hoarding
    client: each waits for the one before it and then resolves the path
    again, so the first creates the file, the rest store over it (no
    ``exists`` from MakeObject, no conflict with the client's own
    store), and the server holds the last."""
    connected(testbed)
    sim, venus = testbed.sim, testbed.venus
    when = sim.now + 1.0
    datas = [b"first", b"second!", b"third!!!"][:writes]
    ended = []

    def write(data):
        yield At(sim, when)
        yield from venus.write_file(M + "/dir/w0", data)
        ended.append((sim.now, data))

    for data in datas:
        sim.process(write(data))
    sim.run(until=when + 60.0)
    assert [data for _when, data in ended] == datas
    assert ended[0][0] > when
    entry = testbed.run(venus.stat(M + "/dir/w0"))
    vnode = testbed.volume.require(entry.fid)
    assert vnode.content == Content.of(datas[-1])
    assert entry.version == vnode.version
    assert len(venus.cml) == 0 and not venus._writing


def test_an_uncontended_write_schedules_nothing_more():
    """A lone write dispatches exactly what the write path without the
    per-path guard dispatches, and ends at the same instant."""
    def unguarded(venus, path, data):
        yield from venus.endpoint.cpu.use(venus.config.local_op_cost)
        entry = yield from venus._prepare_write_target(path, None)
        yield from venus._store(path, entry, Content.of(data))

    def cost(write):
        testbed = build_testbed()
        connected(testbed)
        before = testbed.sim.dispatched
        for name in ("new.txt", "a.txt"):        # a create, a store
            testbed.run(write(testbed.venus, M + "/dir/" + name, b"x" * 700))
        return testbed.sim.dispatched - before, testbed.sim.now

    assert cost(Venus.write_file) == cost(unguarded)


def test_mkdir_rmdir_unlink(testbed):
    connected(testbed)
    venus = testbed.venus
    testbed.run(venus.mkdir(M + "/work"))
    testbed.run(venus.write_file(M + "/work/x", b"x"))
    assert testbed.run(venus.readdir(M + "/work")) == ["x"]
    testbed.run(venus.unlink(M + "/work/x"))
    testbed.run(venus.rmdir(M + "/work"))
    with pytest.raises(FileNotFoundError):
        testbed.run(venus.readdir(M + "/work"))


def test_rmdir_nonempty_fails(testbed):
    connected(testbed)
    testbed.run(testbed.venus.mkdir(M + "/full"))
    testbed.run(testbed.venus.write_file(M + "/full/x", b"x"))
    with pytest.raises(OSError):
        testbed.run(testbed.venus.rmdir(M + "/full"))


def test_missing_file_raises(testbed):
    connected(testbed)
    with pytest.raises(FileNotFoundError):
        testbed.run(testbed.venus.read_file(M + "/dir/ghost.txt"))


def test_disconnected_updates_log_to_cml(testbed):
    connected(testbed)
    testbed.link.set_up(False)
    venus = testbed.venus
    testbed.run(venus.write_file(M + "/dir/offline.txt", b"x" * 1000))
    assert venus.state.state is VenusState.EMULATING
    assert len(venus.cml) == 2          # create + store
    # Local visibility: read back from cache.
    content = testbed.run(venus.read_file(M + "/dir/offline.txt"))
    assert content.size == 1000


def test_disconnected_miss_is_recorded(testbed):
    connected(testbed)
    testbed.link.set_up(False)
    venus = testbed.venus
    venus.handle_disconnection()
    # Evict a cached file, then try to read it while offline.
    entry = testbed.run(venus.stat(M + "/dir/big.bin"))
    venus.cache.remove(entry.fid)
    with pytest.raises(CacheMissError):
        testbed.run(venus.read_file(M + "/dir/big.bin", program="cat"))
    assert len(venus.misses) == 1
    assert venus.misses.peek()[0].program == "cat"


def test_sync_offline_raises(testbed):
    connected(testbed)
    testbed.venus.handle_disconnection()
    with pytest.raises(OfflineError):
        testbed.run(testbed.venus.sync())


def test_reconnect_drains_cml_and_returns_to_hoarding(testbed):
    connected(testbed)
    testbed.link.set_up(False)
    venus = testbed.venus
    testbed.run(venus.write_file(M + "/dir/offline.txt", b"y" * 500))
    testbed.link.set_up(True)
    assert connected(testbed) is VenusState.HOARDING
    assert len(venus.cml) == 0
    # The update made it to the server.
    dir_fid = testbed.volume.root.lookup("dir")
    dir_vnode = testbed.volume.require(dir_fid)
    assert dir_vnode.lookup("offline.txt") is not None


def test_weak_link_stays_write_disconnected():
    from repro.net import MODEM
    testbed = build_testbed(profile=MODEM)
    assert connected(testbed) is VenusState.WRITE_DISCONNECTED


def test_weakly_connected_update_is_logged_not_written_through():
    from repro.net import MODEM
    testbed = build_testbed(profile=MODEM)
    connected(testbed)
    venus = testbed.venus
    testbed.run(venus.write_file(M + "/dir/a.txt", b"weak write"))
    assert len(venus.cml) == 1
    vnode = testbed.volume.require(
        testbed.run(venus.stat(M + "/dir/a.txt")).fid)
    assert vnode.version == 1        # server unchanged so far


def test_weak_miss_below_patience_fetches_transparently():
    from repro.net import MODEM
    testbed = build_testbed(profile=MODEM)
    connected(testbed)
    venus = testbed.venus
    entry = testbed.run(venus.stat(M + "/dir/a.txt"))
    venus.cache.remove(entry.fid)
    # 4 KB at ~9.6 Kb/s is a few seconds; priority 900 tolerates it.
    venus.hoard(M + "/dir/a.txt", 900)
    content = testbed.run(venus.read_file(M + "/dir/a.txt"))
    assert content.size == 4_000
    assert venus.stats.misses_transparent == 1


def test_weak_miss_above_patience_is_refused():
    from repro.net import MODEM
    testbed = build_testbed(profile=MODEM)
    connected(testbed)
    venus = testbed.venus
    entry = testbed.run(venus.stat(M + "/dir/big.bin"))
    venus.cache.remove(entry.fid)
    # 400 KB at 9.6 Kb/s is ~7 minutes; priority 0 tolerates ~3 s.
    with pytest.raises(CacheMissError) as exc:
        testbed.run(venus.read_file(M + "/dir/big.bin", program="grep"))
    assert exc.value.estimated_seconds > 60
    assert venus.stats.misses_denied == 1
    assert venus.misses.peek()[0].size_bytes == 400_000


def test_callback_break_invalidates_cached_object(testbed):
    connected(testbed)
    venus = testbed.venus
    entry = testbed.run(venus.stat(M + "/dir/a.txt"))
    # Another client updates a.txt on the server.
    vnode = testbed.volume.require(entry.fid)
    vnode.content = Content.of(b"other client was here")
    testbed.volume.bump(vnode, 1.0)
    testbed.server._break_callbacks("other", entry.fid)
    testbed.sim.run(until=testbed.sim.now + 5.0)   # let the break land
    assert not venus.cache.is_valid(venus.cache.get(entry.fid))
    # The object is refetched on next use.
    content = testbed.run(venus.read_file(M + "/dir/a.txt"))
    assert content == Content.of(b"other client was here")
