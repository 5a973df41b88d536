"""End-to-end scenarios across clients, networks, and states."""

from repro.fs import Content
from repro.net import ETHERNET, MODEM, Network
from repro.net.host import LAPTOP_1995, SERVER_1995
from repro.server import CodaServer
from repro.sim import RandomStreams, Simulator
from repro.spec.testbed import populate_volume, warm_cache
from repro.venus import Venus, VenusConfig, VenusState

M = "/coda/project/shared"


def two_client_world():
    sim = Simulator()
    streams = RandomStreams(0)
    net = Network(sim, rng=streams.stream("net"))
    server = CodaServer(sim, net, "server", SERVER_1995)
    tree = {
        M + "/src": ("dir", 0),
        M + "/src/main.c": ("file", 5_000),
        M + "/src/util.c": ("file", 8_000),
    }
    volume = populate_volume(server, M, tree)
    clients = {}
    links = {}
    for name in ("desktop", "laptop"):
        links[name] = net.add_link(name, "server", profile=ETHERNET)
        venus = Venus(sim, net, name, "server", LAPTOP_1995,
                      config=VenusConfig())
        warm_cache(venus, server, volume)
        clients[name] = venus
    return sim, server, volume, clients, links


def run(sim, generator):
    return sim.run(sim.process(generator))


def test_update_propagates_between_clients():
    sim, server, volume, clients, links = two_client_world()
    desktop, laptop = clients["desktop"], clients["laptop"]

    def scenario():
        yield from desktop.connect()
        yield from laptop.connect()
        yield from desktop.write_file(M + "/src/main.c", b"desktop v2")
        # The laptop's callback break arrives; its next read refetches.
        yield sim.sleep(5.0)
        content = yield from laptop.read_file(M + "/src/main.c")
        return content

    content = run(sim, scenario())
    assert content == Content.of(b"desktop v2")


def test_volume_callback_break_on_cross_client_update():
    sim, server, volume, clients, links = two_client_world()
    desktop, laptop = clients["desktop"], clients["laptop"]

    def scenario():
        yield from desktop.connect()
        yield from laptop.connect()
        yield from laptop.hoard_walk()      # laptop caches a stamp
        info = laptop.cache.volume_info(volume.volid)
        assert info.callback
        yield from desktop.write_file(M + "/src/new.c", b"x")
        yield sim.sleep(5.0)
        return laptop.cache.volume_info(volume.volid)

    info = run(sim, scenario())
    assert not info.callback
    assert info.stamp is None


def test_disconnected_edits_conflict_with_concurrent_update():
    sim, server, volume, clients, links = two_client_world()
    desktop, laptop = clients["desktop"], clients["laptop"]

    def scenario():
        yield from desktop.connect()
        yield from laptop.connect()
        # The laptop leaves, edits offline; the desktop edits the same
        # file meanwhile.
        links["laptop"].set_up(False)
        laptop.handle_disconnection()
        yield from laptop.write_file(M + "/src/main.c", b"laptop edit")
        yield from desktop.write_file(M + "/src/main.c", b"desktop edit")
        links["laptop"].set_up(True)
        yield from laptop.connect()
        yield sim.sleep(120.0)

    run(sim, scenario())
    assert len(laptop.conflicts) == 1
    # The desktop's edit won; the laptop's conflicting edit is flagged,
    # not silently applied.
    fid = volume.root.lookup("src")
    main = volume.require(volume.require(fid).lookup("main.c"))
    assert main.content == Content.of(b"desktop edit")


def test_disconnected_edits_to_different_files_merge_cleanly():
    sim, server, volume, clients, links = two_client_world()
    desktop, laptop = clients["desktop"], clients["laptop"]

    def scenario():
        yield from desktop.connect()
        yield from laptop.connect()
        links["laptop"].set_up(False)
        laptop.handle_disconnection()
        yield from laptop.write_file(M + "/src/laptop.txt", b"from road")
        yield from desktop.write_file(M + "/src/desktop.txt", b"at desk")
        links["laptop"].set_up(True)
        yield from laptop.connect()
        yield sim.sleep(120.0)

    run(sim, scenario())
    assert len(laptop.conflicts) == 0
    src = volume.require(volume.root.lookup("src"))
    assert src.lookup("laptop.txt") is not None
    assert src.lookup("desktop.txt") is not None


def test_commute_cycle_strong_weak_strong():
    """Office Ethernet -> disconnect -> home modem -> office again."""
    sim = Simulator()
    net = Network(sim)
    server = CodaServer(sim, net, "server", SERVER_1995)
    tree = {M + "/src": ("dir", 0), M + "/src/main.c": ("file", 5_000)}
    volume = populate_volume(server, M, tree)
    link = net.add_link("laptop", "server", profile=ETHERNET)
    venus = Venus(sim, net, "laptop", "server", LAPTOP_1995,
                  config=VenusConfig())
    warm_cache(venus, server, volume)
    states = []
    venus.state.on_transition(lambda old, new: states.append(new.value))

    def scenario():
        yield from venus.connect()
        assert venus.state.state is VenusState.HOARDING
        yield from venus.hoard_walk()
        # Commute: cut the link.
        link.set_up(False)
        venus.handle_disconnection()
        yield from venus.write_file(M + "/src/main.c", b"on the train")
        # Home: a modem connection.
        link.set_bandwidth(MODEM.bandwidth_bps)
        link.forward.latency = link.backward.latency = MODEM.latency
        link.forward.bits_per_byte = link.backward.bits_per_byte = 10
        link.set_up(True)
        yield from venus.connect()
        assert venus.state.state is VenusState.WRITE_DISCONNECTED
        # Updates trickle home overnight.
        yield sim.sleep(700.0)
        assert len(venus.cml) == 0
        # Morning: back on Ethernet.
        link.set_bandwidth(ETHERNET.bandwidth_bps)
        link.forward.latency = link.backward.latency = ETHERNET.latency
        link.forward.bits_per_byte = link.backward.bits_per_byte = 8
        yield sim.sleep(450.0)   # probe daemon reclassifies

    sim.run(sim.process(scenario()))
    assert venus.state.state is VenusState.HOARDING
    # Every connection passes through write disconnected (Figure 2):
    # the initial strong connect drains through WD to hoarding, and so
    # does the morning's return to Ethernet.
    assert states == ["write_disconnected", "hoarding",
                      "emulating", "write_disconnected", "hoarding"]
    main = volume.require(volume.require(
        volume.root.lookup("src")).lookup("main.c"))
    assert main.content == Content.of(b"on the train")


def test_no_keepalive_flood_when_idle():
    """Shared liveness: one idle connected client sends only a trickle
    of keepalive traffic."""
    sim = Simulator()
    net = Network(sim)
    server = CodaServer(sim, net, "server", SERVER_1995)
    volume = populate_volume(server, M, {M + "/d": ("dir", 0)})
    link = net.add_link("laptop", "server", profile=MODEM)
    venus = Venus(sim, net, "laptop", "server", LAPTOP_1995,
                  config=VenusConfig(keepalive_interval=60.0))
    warm_cache(venus, server, volume)

    def scenario():
        yield from venus.connect()

    sim.run(sim.process(scenario()))
    start_packets = venus.endpoint.packets_out
    sim.run(until=sim.now + 3600.0)
    idle_packets = venus.endpoint.packets_out - start_packets
    # One hour idle at one keepalive per minute, plus hoard walks:
    # comfortably under two packets a minute.
    assert idle_packets < 120
    # And the server is still considered alive: heard from within a
    # keepalive interval, and the client still connected.
    assert venus.endpoint.liveness.silent_for("server") \
        < venus.config.keepalive_interval
    assert venus.state.connected


def test_write_disconnected_user_forced_full_reintegration():
    """Section 4.3.2: 'A user can force a full reintegration at any
    time' — e.g. before hanging up a long distance call."""
    sim = Simulator()
    net = Network(sim)
    server = CodaServer(sim, net, "server", SERVER_1995)
    tree = {M + "/d": ("dir", 0)}
    volume = populate_volume(server, M, tree)
    net.add_link("laptop", "server", profile=MODEM)
    venus = Venus(sim, net, "laptop", "server", LAPTOP_1995,
                  config=VenusConfig(aging_window=3600.0))
    warm_cache(venus, server, volume)

    def scenario():
        yield from venus.connect()
        yield from venus.write_file(M + "/d/report.txt", b"r" * 20_000)
        before = sim.now
        drained = yield from venus.sync()
        return drained, sim.now - before

    drained, elapsed = sim.run(sim.process(scenario()))
    assert drained
    assert len(venus.cml) == 0
    # ~20 KB at ~7 Kb/s goodput: tens of seconds, not an hour.
    assert elapsed < 120
