"""Transport edge cases: outages mid-call, busy quenching, recovery."""

from collections import Counter

import pytest

from repro.net import ETHERNET, MODEM, WAVELAN, Network
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
        yield sim.sleep(0.5)      # request would be lost
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
        yield ctx.sim.sleep(10.0)
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
        yield sim.sleep(0.001)
        link.backward.up = False
        yield sim.sleep(1.0)
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
        yield first
        yield second
        return sim.now

    elapsed = sim.run(sim.process(both()))
    # Two 20 KB transfers over one ~7 Kb/s wire: roughly the time of a
    # 40 KB transfer (shared), not of a single 20 KB one.
    solo = 20_000 * 10 / 9600
    assert elapsed > 1.6 * solo


def test_estimator_reset_clears_state():
    sim, link, client, server = build()
    estimator = client.estimator("s")
    estimator.rtt.observe(0.5)
    estimator.observe_transfer(10_000, 1.0)
    estimator.reset()
    assert estimator.rtt.srtt is None
    assert estimator.bandwidth.bytes_per_sec is None


def test_a_go_after_the_upload_finished_uploads_again():
    """A server that restarts after a Store's upload finished has lost
    the upload, so its fresh ``Go`` is answered with a second upload.

    Loss seed 9 drops the Store's Reply; the server crashes 9.5 ms in
    and stays down 11 s.  The retransmitted Request meets a server
    with no call state, which invites the upload again.  Ignoring that
    ``Go`` livelocked the call: the server waited on an upload that
    never came until its receiver idled out, and every ``Busy`` and
    ``Go`` reset the client's retry count, so the call neither
    finished nor failed (3,191 Requests by 3,600 simulated s).
    """
    sim = Simulator()
    net = Network(sim, rng=RandomStreams(9).stream("net"))
    net.add_link("laptop", "server", profile=WAVELAN, loss_rate=0.1)
    sent = Counter()
    transmit = net.transmit

    def counted(datagram):
        sent[type(datagram.payload).__name__] += 1
        transmit(datagram)

    net.transmit = counted

    def boot(node, first_conn_id=1):
        endpoint = Rpc2Endpoint(sim, net, node, 2432, IDEAL,
                                default_bps=WAVELAN.bandwidth_bps,
                                first_conn_id=first_conn_id)
        endpoint.register("Store", lambda ctx, args: ctx.received_bytes)
        return endpoint

    laptop, server = boot("laptop"), boot("server")
    done = {}

    def store():
        result = yield laptop.connect("server").call("Store", send_size=588)
        done["at"], done["bytes"] = sim.now, result.result

    def crash():
        yield sim.sleep(0.0095)
        server.shutdown()
        yield sim.sleep(11.0)
        boot("server", server._next_conn_id)

    sim.process(store(), name="store")
    sim.process(crash(), name="crash")
    sim.run(until=3600.0)
    assert done.get("bytes") == 588, sent
    assert done["at"] == pytest.approx(20.16, abs=0.01)
    assert sent["Request"] == 7


def test_a_reupload_outlasting_the_grace_period_keeps_its_sender():
    """The first upload's state expires 300 s after it ends; it must
    not evict a second upload under the same transfer id that is still
    running then.  A 350,000-byte Store takes about 365 s on Modem, so
    the re-upload that follows an 11 s restart is mid-flight when the
    first one's grace period runs out."""
    sim = Simulator()
    net = Network(sim, rng=RandomStreams(0).stream("net"))
    net.add_link("laptop", "server", profile=MODEM)
    stores = []

    def crash():
        yield sim.sleep(0.5)
        server.shutdown()
        yield sim.sleep(11.0)
        boot("server", server._next_conn_id)

    def store(ctx, args):
        stores.append(sim.now)
        if len(stores) == 1:
            sim.process(crash(), name="crash")
            yield sim.sleep(1.0)
        return ctx.received_bytes

    def boot(node, first_conn_id=1):
        endpoint = Rpc2Endpoint(sim, net, node, 2432, IDEAL,
                                default_bps=MODEM.bandwidth_bps,
                                first_conn_id=first_conn_id)
        endpoint.register("Store", store)
        return endpoint

    laptop, server = boot("laptop"), boot("server")
    result = sim.run(laptop.connect("server").call("Store",
                                                   send_size=350_000))
    assert result.result == 350_000
    assert len(stores) == 2
    assert stores[1] - stores[0] > 300.0
