"""Trickle reintegration: aging, chunking, fragments, conflicts."""

from repro.fs import Content, SyntheticContent
from repro.net import ISDN, MODEM
from repro.venus import VenusConfig, VenusState

from tests.conftest import build_testbed, connected

M = "/coda/usr/u"


def weak_testbed(aging_window=600.0, chunk_seconds=30.0,
                 daemon_period=5.0, profile=MODEM, **extra):
    config = VenusConfig(aging_window=aging_window,
                         chunk_seconds=chunk_seconds,
                         daemon_period=daemon_period, **extra)
    testbed = build_testbed(profile=profile, venus_config=config)
    connected(testbed)
    assert testbed.venus.state.state is VenusState.WRITE_DISCONNECTED
    return testbed


def server_file(testbed, name):
    dir_fid = testbed.volume.root.lookup("dir")
    dir_vnode = testbed.volume.require(dir_fid)
    fid = dir_vnode.lookup(name)
    return testbed.volume.get(fid) if fid is not None else None


def test_records_wait_for_aging_window():
    testbed = weak_testbed(aging_window=600.0)
    venus = testbed.venus
    testbed.run(venus.write_file(M + "/dir/slow.txt", b"z" * 2_000))
    testbed.sim.run(until=testbed.sim.now + 300.0)
    # Younger than A: still local only.
    assert len(venus.cml) > 0
    assert server_file(testbed, "slow.txt") is None
    testbed.sim.run(until=testbed.sim.now + 400.0)
    # Old enough: propagated in the background.
    assert len(venus.cml) == 0
    assert server_file(testbed, "slow.txt") is not None


def test_aging_window_enables_overwrite_cancellation():
    testbed = weak_testbed(aging_window=600.0)
    venus = testbed.venus
    testbed.run(venus.write_file(M + "/dir/a.txt", b"1" * 50_000))

    def overwrite_later():
        yield testbed.sim.timeout(120.0)
        yield from venus.write_file(M + "/dir/a.txt", b"2" * 1_000)

    testbed.run(overwrite_later())
    testbed.sim.run(until=2_000.0)
    # Only the second store was shipped; the first was optimized away.
    assert venus.trickle.stats.records_shipped == 1
    vnode = server_file(testbed, "a.txt")
    assert vnode.content == Content.of(b"2" * 1_000)
    assert venus.cml.stats.optimized_records == 1


def test_chunk_size_tracks_bandwidth():
    testbed = weak_testbed()
    venus = testbed.venus
    # ~9.6 Kb/s estimated -> C around 30s * ~900 B/s; allow wide band.
    chunk = venus.trickle.chunk_bytes()
    assert 10_000 < chunk < 80_000

    testbed_isdn = weak_testbed(profile=ISDN)
    chunk_isdn = testbed_isdn.venus.trickle.chunk_bytes()
    assert chunk_isdn > 2.5 * chunk


def test_backlog_ships_in_multiple_chunks():
    testbed = weak_testbed(aging_window=0.0)
    venus = testbed.venus

    def burst():
        for i in range(6):
            yield from venus.write_file(M + "/dir/f%d" % i,
                                        SyntheticContent(30_000))

    testbed.run(burst())
    testbed.sim.run(until=testbed.sim.now + 2_500.0)
    assert len(venus.cml) == 0
    stats = venus.trickle.stats
    assert stats.chunks_committed >= 3       # ~180 KB at ~36 KB per chunk
    assert stats.records_shipped == 12       # 6 creates + 6 stores


def test_large_store_ships_as_fragments():
    testbed = weak_testbed(aging_window=0.0)
    venus = testbed.venus
    testbed.run(venus.write_file(M + "/dir/huge", SyntheticContent(150_000)))
    testbed.sim.run(until=testbed.sim.now + 2_000.0)
    assert len(venus.cml) == 0
    assert venus.trickle.stats.fragments_shipped >= 3
    assert server_file(testbed, "huge").content.size == 150_000


def test_fragment_shipping_resumes_after_outage():
    testbed = weak_testbed(aging_window=0.0)
    venus = testbed.venus
    testbed.run(venus.write_file(M + "/dir/huge", SyntheticContent(200_000)))

    def outage():
        # Let a few fragments through, then cut the link for a while.
        yield testbed.sim.timeout(120.0)
        testbed.link.set_up(False)
        yield testbed.sim.timeout(300.0)
        testbed.link.set_up(True)

    testbed.sim.process(outage())
    testbed.sim.run(until=4_000.0)
    assert len(venus.cml) == 0
    assert server_file(testbed, "huge").content.size == 200_000
    stats = venus.trickle.stats
    # Progress survived: far fewer fragments than two full transfers.
    full = 200_000 / venus.trickle.chunk_bytes()
    assert stats.fragments_shipped <= full + 4
    assert stats.aborts >= 1


def test_conflict_detected_and_confined():
    testbed = weak_testbed(aging_window=0.0)
    venus = testbed.venus
    # Client updates a.txt while weakly connected...
    testbed.run(venus.write_file(M + "/dir/a.txt", b"mine" * 100))
    # ...but another client already changed it at the server.
    vnode = server_file(testbed, "a.txt")
    vnode.content = Content.of(b"theirs")
    testbed.volume.bump(vnode, 1.0)
    testbed.sim.run(until=testbed.sim.now + 400.0)
    assert len(venus.conflicts) == 1
    conflict = venus.list_conflicts()[0]
    assert conflict.reason == "update/update conflict"
    assert len(venus.cml) == 0
    # The server keeps the other client's data (no blind overwrite).
    assert server_file(testbed, "a.txt").content == Content.of(b"theirs")


def test_conflict_does_not_block_other_records():
    testbed = weak_testbed(aging_window=0.0)
    venus = testbed.venus
    testbed.run(venus.write_file(M + "/dir/a.txt", b"conflicting"))
    testbed.run(venus.write_file(M + "/dir/clean.txt", b"fine"))
    vnode = server_file(testbed, "a.txt")
    testbed.volume.bump(vnode, 1.0)
    testbed.sim.run(until=testbed.sim.now + 600.0)
    assert len(venus.conflicts) == 1
    assert server_file(testbed, "clean.txt") is not None


def test_forced_sync_ignores_aging():
    testbed = weak_testbed(aging_window=3_600.0)
    venus = testbed.venus
    testbed.run(venus.write_file(M + "/dir/urgent", b"now!"))
    assert server_file(testbed, "urgent") is None
    drained = testbed.run(venus.sync())
    assert drained
    assert len(venus.cml) == 0
    assert server_file(testbed, "urgent") is not None


def test_trickle_defers_to_foreground_between_chunks():
    testbed = weak_testbed(aging_window=0.0, daemon_period=2.0)
    venus = testbed.venus

    def burst():
        for i in range(4):
            yield from venus.write_file(M + "/dir/bg%d" % i,
                                        SyntheticContent(35_000))

    testbed.run(burst())

    # Hold the foreground "busy" and watch the daemon stall.
    class Probe:
        def run(self):
            yield testbed.sim.timeout(5.0)
            venus.foreground_ops += 1
            shipped_before = venus.trickle.stats.chunks_committed
            yield testbed.sim.timeout(300.0)
            self.during = (venus.trickle.stats.chunks_committed
                           - shipped_before)
            venus.foreground_ops -= 1

    probe = Probe()
    testbed.sim.run(testbed.sim.process(probe.run()))
    # At most the chunk already in flight completed; no new chunks
    # started while foreground activity was pending.
    assert probe.during <= 1
    testbed.sim.run(until=testbed.sim.now + 2_000.0)
    assert len(venus.cml) == 0


def test_disconnection_mid_chunk_aborts_cleanly():
    testbed = weak_testbed(aging_window=0.0)
    venus = testbed.venus
    testbed.run(venus.write_file(M + "/dir/x", SyntheticContent(30_000)))

    def chop():
        yield testbed.sim.timeout(12.0)   # mid-transfer at 9.6 Kb/s
        testbed.link.set_up(False)

    testbed.sim.process(chop())
    testbed.sim.run(until=testbed.sim.now + 600.0)
    assert venus.state.state is VenusState.EMULATING
    assert venus.cml.frozen_count == 0
    # The unpropagated update survives in the log (the create may have
    # shipped in its own chunk before the link died).
    from repro.venus import CmlOp
    assert any(r.op is CmlOp.STORE for r in venus.cml)
    # Reconnect: the update finally lands.
    testbed.link.set_up(True)
    testbed.sim.run(until=testbed.sim.now + 900.0)
    assert server_file(testbed, "x") is not None
