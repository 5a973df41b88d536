"""Transport edge cases: outages mid-call, busy quenching, recovery."""

from repro.net import ETHERNET, MODEM, Network
from repro.net.host import IDEAL, LAPTOP_1995, SERVER_1995
from repro.rpc2 import Rpc2Endpoint
from repro.sim import RandomStreams, Simulator


def build(profile=ETHERNET, loss=0.0, seed=0):
    sim = Simulator()
    net = Network(sim, rng=RandomStreams(seed).stream("net"))
    link = net.add_link("c", "s", profile=profile, loss_rate=loss)
    client = Rpc2Endpoint(sim, net, "c", 2432, LAPTOP_1995)
    server = Rpc2Endpoint(sim, net, "s", 2432, SERVER_1995)
    return sim, link, client, server


def test_call_survives_brief_outage():
    sim, link, client, server = build()
    server.register("Echo", lambda ctx, args: args)
    conn = client.connect("s")
    link.outage(after=0.0, duration=1.0)

    def scenario():
        yield sim.timeout(0.5)      # request would be lost
        result = yield conn.call("Echo", "still there?")
        return (result.result, sim.now)

    value, when = sim.run(sim.process(scenario()))
    assert value == "still there?"
    assert when > 1.0               # retransmission after the outage


def test_busy_prevents_duplicate_execution_of_slow_call():
    sim, link, client, server = build(loss=0.10, seed=7)
    runs = {"count": 0}

    def slow(ctx, args):
        runs["count"] += 1
        yield ctx.sim.timeout(10.0)
        return "done"

    server.register("Slow", slow)
    conn = client.connect("s")
    result = sim.run(conn.call("Slow"))
    assert result.result == "done"
    assert runs["count"] == 1


def test_reply_loss_recovered_from_cache():
    """A deterministic lost reply: the server resends its cached one."""
    sim, link, client, server = build()
    runs = {"count": 0}

    def handler(ctx, args):
        runs["count"] += 1
        return "once"

    server.register("Once", handler)
    conn = client.connect("s")

    # Cut the server->client direction exactly while the reply flies.
    def chop():
        yield sim.timeout(0.001)
        link.backward.up = False
        yield sim.timeout(1.0)
        link.backward.up = True

    sim.process(chop())
    result = sim.run(conn.call("Once"))
    assert result.result == "once"
    assert runs["count"] == 1


def test_bulk_fetch_through_interrupted_link():
    sim, link, client, server = build(profile=MODEM)
    server.register("Fetch", lambda ctx, args: (None, args["n"]))
    conn = client.connect("s")
    # 40 KB at ~7 Kb/s ~ 46 s; a 10 s outage in the middle.
    link.outage(after=15.0, duration=10.0)
    result = sim.run(conn.call("Fetch", {"n": 40_000}))
    assert result.bulk_bytes == 40_000


def test_concurrent_transfers_share_the_wire_fairly():
    sim = Simulator()
    net = Network(sim)
    net.add_link("c", "s", profile=MODEM)
    client = Rpc2Endpoint(sim, net, "c", 2432, IDEAL,
                          default_bps=9600)
    server = Rpc2Endpoint(sim, net, "s", 2432, IDEAL,
                          default_bps=9600)
    server.register("Fetch", lambda ctx, args: (None, args["n"]))
    conn_a = client.connect("s")
    conn_b = client.connect("s")

    def both():
        first = conn_a.call("Fetch", {"n": 20_000})
        second = conn_b.call("Fetch", {"n": 20_000})
        yield sim.all_of([first, second])
        return sim.now

    elapsed = sim.run(sim.process(both()))
    # Two 20 KB transfers over one ~7 Kb/s wire: roughly the time of a
    # 40 KB transfer (shared), not of a single 20 KB one.
    solo = 20_000 * 10 / 9600
    assert elapsed > 1.6 * solo


def test_estimator_reset_clears_state():
    sim, link, client, server = build()
    estimator = client.estimator("s")
    estimator.observe_rtt(0.5)
    estimator.observe_transfer(10_000, 1.0)
    estimator.reset()
    assert estimator.rtt.srtt is None
    assert estimator.bandwidth.bytes_per_sec is None
