"""Hard links, setattr, multi-volume clients, SLIP floor, eviction."""

import pytest

from repro.net import ETHERNET, SLIP_1200
from repro.spec.testbed import make_testbed, populate_volume, warm_cache
from repro.venus import VenusConfig, VenusState

from tests.conftest import build_testbed, connected

M = "/coda/usr/u"


def test_hard_link_connected(testbed):
    connected(testbed)
    venus = testbed.venus
    testbed.run(venus.link(M + "/dir/a.txt", M + "/dir/a-link"))
    names = testbed.run(venus.readdir(M + "/dir"))
    assert "a-link" in names
    # Both names resolve to the same object.
    a = testbed.run(venus.stat(M + "/dir/a.txt"))
    b = testbed.run(venus.stat(M + "/dir/a-link"))
    assert a.fid == b.fid
    # Server agrees.
    dir_vnode = testbed.volume.require(testbed.volume.root.lookup("dir"))
    assert dir_vnode.lookup("a-link") == a.fid
    assert testbed.volume.require(a.fid).link_count == 2


def test_hard_link_while_disconnected_reintegrates(testbed):
    connected(testbed)
    venus = testbed.venus
    testbed.link.set_up(False)
    venus.handle_disconnection()
    testbed.run(venus.link(M + "/dir/a.txt", M + "/dir/a-link"))
    assert len(venus.cml) == 1
    testbed.link.set_up(True)
    connected(testbed)
    assert len(venus.cml) == 0
    dir_vnode = testbed.volume.require(testbed.volume.root.lookup("dir"))
    assert dir_vnode.lookup("a-link") is not None


def test_unlink_one_name_of_linked_file_keeps_object(testbed):
    connected(testbed)
    venus = testbed.venus
    testbed.run(venus.link(M + "/dir/a.txt", M + "/dir/a-link"))
    testbed.run(venus.unlink(M + "/dir/a.txt"))
    content = testbed.run(venus.read_file(M + "/dir/a-link"))
    assert content.size == 4_000


def test_link_to_directory_rejected(testbed):
    connected(testbed)
    with pytest.raises(IsADirectoryError):
        testbed.run(testbed.venus.link(M + "/dir", M + "/dirlink"))


def test_setattr_connected_bumps_version(testbed):
    connected(testbed)
    venus = testbed.venus
    before = testbed.run(venus.stat(M + "/dir/a.txt")).version
    testbed.run(venus.setattr(M + "/dir/a.txt", {"mode": 0o644}))
    after = testbed.run(venus.stat(M + "/dir/a.txt")).version
    assert after == before + 1


def test_setattr_disconnected_logs(testbed):
    connected(testbed)
    venus = testbed.venus
    testbed.link.set_up(False)
    venus.handle_disconnection()
    testbed.run(venus.setattr(M + "/dir/a.txt", {"mode": 0o600}))
    assert len(venus.cml) == 1
    # Two setattrs of one object collapse to one record.
    testbed.run(venus.setattr(M + "/dir/a.txt", {"mode": 0o640}))
    assert len(venus.cml) == 1


def test_multi_volume_client_validates_in_one_rpc():
    testbed = make_testbed(ETHERNET,
                           venus_config=VenusConfig(start_daemons=False))
    volumes = []
    for i in range(4):
        mount = "/coda/multi/v%d" % i
        tree = {mount + "/d": ("dir", 0),
                mount + "/d/f": ("file", 1_000)}
        volume = populate_volume(testbed.server, mount, tree)
        warm_cache(testbed.venus, testbed.server, volume)
        volumes.append(volume)
    venus = testbed.venus

    def scenario():
        yield from venus.connect()
        venus.handle_disconnection()
        packets_before = venus.endpoint.packets_out
        yield from venus.validator.validate_all()
        return venus.endpoint.packets_out - packets_before

    packets = testbed.run(scenario())
    # Four volumes, one batched ValidateVolumes RPC: 1 request out.
    assert packets <= 2
    stats = venus.validator.stats
    assert stats.attempts >= 4
    assert stats.objects_saved >= 4 * 3 - 4


def test_slip_1200_still_usable():
    """The paper's floor: mechanisms work down to 1.2 Kb/s."""
    testbed = build_testbed(profile=SLIP_1200)
    state = connected(testbed)
    assert state is VenusState.WRITE_DISCONNECTED
    venus = testbed.venus
    # A small write trickles out eventually.
    testbed.run(venus.write_file(M + "/dir/note", b"x" * 600))
    testbed.sim.run(until=testbed.sim.now + 1_200.0)
    assert len(venus.cml) == 0
    dir_vnode = testbed.volume.require(testbed.volume.root.lookup("dir"))
    assert dir_vnode.lookup("note") is not None


def test_cache_pressure_evicts_cold_not_dirty():
    tree = {M + "/dir": ("dir", 0)}
    for i in range(8):
        tree["%s/dir/f%d" % (M, i)] = ("file", 40_000)
    config = VenusConfig(cache_capacity=8 * 50_000,
                         start_daemons=False)
    testbed = build_testbed(tree=tree, venus_config=config)
    connected(testbed)
    venus = testbed.venus
    testbed.link.set_up(False)
    venus.handle_disconnection()
    # Dirty a file, then force pressure with big new writes.
    testbed.run(venus.write_file(M + "/dir/f0", b"d" * 45_000))
    for i in range(3):
        testbed.run(venus.write_file("%s/dir/new%d" % (M, i),
                                     b"n" * 45_000))
    entry = testbed.run(venus.stat(M + "/dir/f0"))
    assert entry.content is not None       # dirty data survived
    assert venus.cache.evictions > 0
