"""Conflict repair (section 2.2's recovery mechanisms)."""

import pytest

from repro.fs import Content
from repro.venus import VenusConfig

from tests.conftest import build_testbed, connected

M = "/coda/usr/u"


def conflicted_testbed():
    """A testbed with one update/update conflict already confined."""
    config = VenusConfig(aging_window=0.0, daemon_period=5.0)
    from repro.net import MODEM
    testbed = build_testbed(profile=MODEM, venus_config=config)
    connected(testbed)
    venus = testbed.venus
    testbed.run(venus.write_file(M + "/dir/a.txt", b"mine mine mine"))
    vnode = _server_file(testbed, "a.txt")
    vnode.content = Content.of(b"theirs")
    testbed.volume.bump(vnode, 1.0)
    # The other client's update breaks our callbacks, as it would live.
    testbed.server._break_callbacks("other-client", vnode.fid)
    testbed.sim.run(until=testbed.sim.now + 300.0)
    assert len(venus.conflicts) == 1
    return testbed


def _server_file(testbed, name):
    d = testbed.volume.require(testbed.volume.root.lookup("dir"))
    return testbed.volume.get(d.lookup(name))


def test_conflict_preserves_both_sides():
    testbed = conflicted_testbed()
    conflict = testbed.venus.list_conflicts()[0]
    # The local side lives in the conflict record...
    assert conflict.record.content == Content.of(b"mine mine mine")
    # ...and the server side is intact.
    assert _server_file(testbed, "a.txt").content == Content.of(b"theirs")
    assert conflict.path == M + "/dir/a.txt"
    assert "update/update" in conflict.describe()


def test_resolve_theirs_keeps_server_version():
    testbed = conflicted_testbed()
    venus = testbed.venus
    conflict = venus.list_conflicts()[0]
    testbed.run(venus.repair(conflict.ident, "theirs"))
    assert venus.list_conflicts() == []
    assert conflict.resolved == "theirs"
    content = testbed.run(venus.read_file(M + "/dir/a.txt"))
    assert content == Content.of(b"theirs")


def test_resolve_mine_reapplies_local_version():
    testbed = conflicted_testbed()
    venus = testbed.venus
    conflict = venus.list_conflicts()[0]
    testbed.run(venus.repair(conflict.ident, "mine"))
    assert venus.list_conflicts() == []
    # The reapplied update reintegrates against the *current* server
    # version, so it lands cleanly this time.
    testbed.sim.run(until=testbed.sim.now + 300.0)
    assert _server_file(testbed, "a.txt").content \
        == Content.of(b"mine mine mine")
    assert len(venus.conflicts.pending()) == 0


def test_double_resolution_rejected():
    testbed = conflicted_testbed()
    venus = testbed.venus
    conflict = venus.list_conflicts()[0]
    testbed.run(venus.repair(conflict.ident, "theirs"))
    with pytest.raises(ValueError):
        testbed.run(venus.repair(conflict.ident, "theirs"))


def test_bad_resolution_keyword_rejected():
    testbed = conflicted_testbed()
    venus = testbed.venus
    conflict = venus.list_conflicts()[0]
    with pytest.raises(ValueError):
        testbed.run(venus.repair(conflict.ident, "both"))


def test_name_collision_conflict_recovers_under_new_name():
    """A create that collides recreates as <name>.conflict on 'mine'."""
    config = VenusConfig(aging_window=0.0, daemon_period=5.0)
    from repro.net import MODEM
    testbed = build_testbed(profile=MODEM, venus_config=config)
    connected(testbed)
    venus = testbed.venus
    testbed.link.set_up(False)
    venus.handle_disconnection()
    testbed.run(venus.write_file(M + "/dir/report", b"my report"))
    # Another client creates the same name on the server first.
    from repro.fs import ObjectType, Vnode
    volume = testbed.volume
    other = Vnode(volume.alloc_fid(), ObjectType.FILE,
                  content=Content.of(b"their report"))
    volume.add(other)
    d = volume.require(volume.root.lookup("dir"))
    d.children["report"] = other.fid
    volume.bump(d, 1.0)
    testbed.link.set_up(True)
    connected(testbed)
    testbed.sim.run(until=testbed.sim.now + 300.0)
    conflicts = venus.list_conflicts()
    assert conflicts, "expected a name-collision conflict"
    create = [c for c in conflicts if c.record.op.value == "create"][0]
    testbed.run(venus.repair(create.ident, "mine"))
    testbed.sim.run(until=testbed.sim.now + 300.0)
    # Both reports exist now.
    assert _server_file(testbed, "report").content \
        == Content.of(b"their report")
    assert _server_file(testbed, "report.conflict") is not None


def _disconnected_testbed():
    """A connected-then-severed testbed, ready to log colliding ops."""
    config = VenusConfig(aging_window=0.0, daemon_period=5.0)
    from repro.net import MODEM
    testbed = build_testbed(profile=MODEM, venus_config=config)
    connected(testbed)
    testbed.link.set_up(False)
    testbed.venus.handle_disconnection()
    return testbed


def _plant_on_server(testbed, name, otype):
    """Another client wins the race: ``dir/<name>`` appears server-side."""
    from repro.fs import Vnode
    volume = testbed.volume
    other = Vnode(volume.alloc_fid(), otype)
    volume.add(other)
    d = volume.require(volume.root.lookup("dir"))
    d.children[name] = other.fid
    volume.bump(d, 1.0)
    return other


def _reconnect_and_confine(testbed):
    testbed.link.set_up(True)
    connected(testbed)
    testbed.sim.run(until=testbed.sim.now + 300.0)
    conflicts = testbed.venus.list_conflicts()
    assert conflicts, "expected a confined conflict"
    return conflicts


def test_directory_collision_recovers_as_conflict_directory():
    """An mkdir that collides recreates as <name>.conflict, still a dir."""
    from repro.fs import ObjectType
    testbed = _disconnected_testbed()
    venus = testbed.venus
    testbed.run(venus.mkdir(M + "/dir/build"))
    _plant_on_server(testbed, "build", ObjectType.DIRECTORY)
    conflicts = _reconnect_and_confine(testbed)
    mkdir = [c for c in conflicts if c.record.op.value == "mkdir"][0]
    testbed.run(venus.repair(mkdir.ident, "mine"))
    testbed.sim.run(until=testbed.sim.now + 300.0)
    theirs = _server_file(testbed, "build")
    assert theirs is not None and theirs.otype is ObjectType.DIRECTORY
    recovered = _server_file(testbed, "build.conflict")
    assert recovered is not None
    assert recovered.otype is ObjectType.DIRECTORY


def test_removed_file_store_recovers_beside_the_original():
    """keep='mine' on an update/remove conflict recreates the file as
    <name>.conflict — the file variant of the recovery rename."""
    testbed = _disconnected_testbed()
    venus = testbed.venus
    testbed.run(venus.write_file(M + "/dir/a.txt", b"survivor"))
    # The other client removes the object entirely, server-side.
    volume = testbed.volume
    d = volume.require(volume.root.lookup("dir"))
    doomed = volume.get(d.lookup("a.txt"))
    del d.children["a.txt"]
    volume.remove(doomed.fid)
    volume.bump(d, 1.0)
    conflicts = _reconnect_and_confine(testbed)
    store = [c for c in conflicts if c.record.op.value == "store"][0]
    testbed.run(venus.repair(store.ident, "mine"))
    testbed.sim.run(until=testbed.sim.now + 300.0)
    assert _server_file(testbed, "a.txt") is None
    recovered = _server_file(testbed, "a.txt.conflict")
    assert recovered is not None
    assert recovered.content == Content.of(b"survivor")


def test_unresolved_conflicts_survive_listing():
    testbed = conflicted_testbed()
    venus = testbed.venus
    assert len(venus.conflicts.all()) == 1
    assert len(venus.list_conflicts()) == 1
    with pytest.raises(KeyError):
        venus.conflicts.get(999)
