"""Rapid cache validation through the live stack."""

from repro.fs import Content
from repro.core.validation import ValidationStats
from repro.venus import VenusConfig, VenusState

from tests.conftest import build_testbed, connected

M = "/coda/usr/u"


def warm_connected_testbed(**config_kwargs):
    config = VenusConfig(start_daemons=False, **config_kwargs)
    testbed = build_testbed(venus_config=config)
    connected(testbed)
    return testbed


def acquire_stamps(testbed):
    report = testbed.run(testbed.venus.hoard_walk())
    assert report.stamps_acquired == 1
    return report


def reset_stats(venus):
    """Discard counts from connect()'s own validation pass."""
    venus.validator.stats = ValidationStats()
    return venus.validator.stats


def test_valid_stamp_validates_whole_volume():
    testbed = warm_connected_testbed()
    venus = testbed.venus
    acquire_stamps(testbed)
    reset_stats(venus)
    venus.handle_disconnection()
    checked = testbed.run(venus.validator.validate_all())
    stats = venus.validator.stats
    assert checked == 0                      # nothing validated singly
    assert stats.successes == stats.attempts == 1
    assert stats.objects_saved == len(venus.cache)
    info = venus.cache.volume_info(testbed.volume.volid)
    assert info.callback                     # reacquired as a side effect


def test_stale_stamp_falls_back_to_object_validation():
    testbed = warm_connected_testbed()
    venus = testbed.venus
    acquire_stamps(testbed)
    reset_stats(venus)
    venus.handle_disconnection()
    # Another client updates one object while we are away.
    dir_fid = testbed.volume.root.lookup("dir")
    a_fid = testbed.volume.require(dir_fid).lookup("a.txt")
    vnode = testbed.volume.require(a_fid)
    vnode.content = Content.of(b"changed behind our back")
    testbed.volume.bump(vnode, 1.0)
    checked = testbed.run(venus.validator.validate_all())
    stats = venus.validator.stats
    assert stats.successes == 0 and stats.attempts == 1
    assert checked == len(venus.cache)
    # The stale object lost its data but kept fresh status.
    entry = venus.cache.get(a_fid)
    assert entry.content is None
    assert entry.version == vnode.version
    # Everything else revalidated with object callbacks.
    others = [e for e in venus.cache.entries() if e.fid != a_fid]
    assert all(e.callback for e in others)


def test_missing_stamp_counts_and_validates_objects():
    testbed = warm_connected_testbed()
    venus = testbed.venus
    # Forget the stamp entirely (as for a volume never walked).
    venus.cache.volume_info(testbed.volume.volid).drop()
    reset_stats(venus)
    venus.handle_disconnection()
    checked = testbed.run(venus.validator.validate_all())
    stats = venus.validator.stats
    assert stats.missing_stamp == 1
    assert stats.attempts == 0
    assert checked == len(venus.cache)


def test_deleted_object_dropped_during_validation():
    testbed = warm_connected_testbed()
    venus = testbed.venus
    acquire_stamps(testbed)
    venus.handle_disconnection()
    dir_fid = testbed.volume.root.lookup("dir")
    dir_vnode = testbed.volume.require(dir_fid)
    a_fid = dir_vnode.lookup("a.txt")
    del dir_vnode.children["a.txt"]
    testbed.volume.remove(a_fid)
    testbed.volume.bump(dir_vnode, 1.0)
    testbed.run(venus.validator.validate_all())
    assert venus.cache.get(a_fid) is None


def test_object_mode_never_uses_stamps():
    testbed = warm_connected_testbed(use_volume_callbacks=False)
    venus = testbed.venus
    testbed.run(venus.hoard_walk())          # no stamps acquired
    reset_stats(venus)
    venus.handle_disconnection()
    checked = testbed.run(venus.validator.validate_all())
    assert checked == len(venus.cache)
    assert venus.validator.stats.attempts == 0


def test_batching_bounds_rpc_count():
    config = VenusConfig(start_daemons=False)
    tree = {M + "/dir": ("dir", 0)}
    for i in range(120):
        tree["%s/dir/f%03d" % (M, i)] = ("file", 1_000)
    testbed = build_testbed(venus_config=config, tree=tree)
    connected(testbed)
    venus = testbed.venus
    venus.handle_disconnection()
    packets_before = venus.endpoint.packets_out
    testbed.run(venus.validator.validate_all())
    # 122 objects in batches of 50 -> 3 RPCs (plus retransmit slack).
    rpc_packets = venus.endpoint.packets_out - packets_before
    assert rpc_packets <= 6


def test_validation_after_reconnect_is_automatic():
    """The full loop: disconnect, update elsewhere, reconnect."""
    testbed = build_testbed()
    connected(testbed)
    venus = testbed.venus
    testbed.run(venus.hoard_walk())
    testbed.link.set_up(False)
    venus.handle_disconnection()
    assert venus.state.state is VenusState.EMULATING
    testbed.link.set_up(True)
    assert connected(testbed) is VenusState.HOARDING
    stats = venus.validator.stats
    assert stats.successes >= 1
    assert stats.objects_saved >= len(venus.cache) - 1
