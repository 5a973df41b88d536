"""Server replication: read-one/write-all with resolution."""

from repro.fs import Content
from repro.net import ETHERNET, Network
from repro.net.host import LAPTOP_1995, SERVER_1995
from repro.server import CodaServer
from repro.server.replication import create_replicated_volume
from repro.sim import Simulator
from repro.venus import Venus, VenusConfig, VenusState

M = "/coda/rep/vol"


def vsg_world(n_servers=3):
    sim = Simulator()
    net = Network(sim)
    servers = []
    links = {}
    names = ["server%d" % i for i in range(n_servers)]
    for name in names:
        links[name] = net.add_link("laptop", name, profile=ETHERNET)
        servers.append(CodaServer(sim, net, name, SERVER_1995))
    volumes = create_replicated_volume(servers, "rep", M)
    venus = Venus(sim, net, "laptop", servers, LAPTOP_1995,
                  config=VenusConfig())
    venus.learn_mounts(servers[0].registry)
    return sim, servers, volumes, venus, links


def test_replicated_volumes_are_identical():
    sim, servers, volumes, venus, links = vsg_world()
    assert len({v.volid for v in volumes}) == 1
    assert len({v.root_fid for v in volumes}) == 1


def test_update_reaches_every_replica():
    sim, servers, volumes, venus, links = vsg_world()

    def scenario():
        yield from venus.connect()
        yield from venus.write_file(M + "/shared.txt", b"everywhere")

    sim.run(sim.process(scenario()))
    for volume in volumes:
        fid = volume.root.lookup("shared.txt")
        assert fid is not None
        assert volume.require(fid).content == Content.of(b"everywhere")


def test_read_fails_over_when_preferred_replica_dies():
    sim, servers, volumes, venus, links = vsg_world()

    def scenario():
        yield from venus.connect()
        yield from venus.write_file(M + "/f", b"data")
        # Drop the cached copy, kill the preferred server, read again.
        entry = yield from venus.stat(M + "/f")
        venus.cache.remove(entry.fid)
        links["server0"].set_up(False)
        content = yield from venus.read_file(M + "/f")
        return content

    content = sim.run(sim.process(scenario()))
    assert content == Content.of(b"data")
    assert venus.state.state is not VenusState.EMULATING


def test_updates_continue_and_replica_marked_stale():
    sim, servers, volumes, venus, links = vsg_world()

    def scenario():
        yield from venus.connect()
        links["server2"].set_up(False)
        yield from venus.write_file(M + "/g", b"missed by server2")

    sim.run(sim.process(scenario()))
    assert volumes[0].root.lookup("g") is not None
    assert volumes[1].root.lookup("g") is not None
    assert volumes[2].root.lookup("g") is None
    assert "server2" in venus.conn.stale


def test_rejoining_replica_is_resolved_before_use():
    sim, servers, volumes, venus, links = vsg_world()

    def scenario():
        yield from venus.connect()
        links["server2"].set_up(False)
        yield from venus.write_file(M + "/h", b"while you were out")
        links["server2"].set_up(True)
        # The next update heals server2 first (resolution), then
        # applies everywhere.
        yield from venus.write_file(M + "/i", b"after rejoin")

    sim.run(sim.process(scenario()))
    assert venus.conn.resolutions >= 1
    assert venus.conn.stale == set()
    for name in ("h", "i"):
        fid = volumes[2].root.lookup(name)
        assert fid is not None, name
    assert volumes[2].stamp == volumes[0].stamp


def test_all_replicas_down_means_disconnected():
    sim, servers, volumes, venus, links = vsg_world()

    def scenario():
        yield from venus.connect()
        yield from venus.readdir(M)     # cache the root while online
        for link in links.values():
            link.set_up(False)
        yield from venus.write_file(M + "/j", b"offline")

    sim.run(sim.process(scenario()))
    assert venus.state.state is VenusState.EMULATING
    assert len(venus.cml) > 0


def test_reintegration_fans_out_to_all_replicas():
    sim, servers, volumes, venus, links = vsg_world()

    def scenario():
        yield from venus.connect()
        yield from venus.readdir(M)     # cache the root while online
        for link in links.values():
            link.set_up(False)
        venus.handle_disconnection()
        yield from venus.write_file(M + "/k", b"logged offline")
        for link in links.values():
            link.set_up(True)
        yield from venus.connect()

    sim.run(sim.process(scenario()))
    assert len(venus.cml) == 0
    for volume in volumes:
        assert volume.root.lookup("k") is not None
