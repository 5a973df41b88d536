"""RPC2 endpoint behaviour: calls, retransmission, bulk, liveness."""

import pytest

from repro.net import ETHERNET, MODEM, Network
from repro.net.host import IDEAL, LAPTOP_1995, SERVER_1995
from repro.rpc2 import ConnectionDead, RemoteError, Rpc2Endpoint
from repro.sim import RandomStreams, Simulator


def build(profile=ETHERNET, loss=0.0, seed=0,
          client_host=LAPTOP_1995, server_host=SERVER_1995):
    sim = Simulator()
    net = Network(sim, rng=RandomStreams(seed).stream("net"))
    link = net.add_link("c", "s", profile=profile, loss_rate=loss)
    client = Rpc2Endpoint(sim, net, "c", 2432, client_host)
    server = Rpc2Endpoint(sim, net, "s", 2432, server_host)
    return sim, link, client, server


def call(sim, conn, *args, **kwargs):
    return sim.run(conn.call(*args, **kwargs))


def test_simple_call_roundtrip():
    sim, _link, client, server = build()
    server.register("Echo", lambda ctx, args: {"echo": args})
    conn = client.connect("s")
    result = call(sim, conn, "Echo", {"x": 1})
    assert result.result == {"echo": {"x": 1}}


def test_generator_handler_can_wait():
    sim, _link, client, server = build()

    def handler(ctx, args):
        yield ctx.sim.sleep(0.5)
        return "slow-ok"

    server.register("Slow", handler)
    conn = client.connect("s")
    result = call(sim, conn, "Slow")
    assert result.result == "slow-ok"
    assert sim.now >= 0.5


def test_unknown_procedure_raises_remote_error():
    sim, _link, client, server = build()
    conn = client.connect("s")
    with pytest.raises(RemoteError):
        call(sim, conn, "NoSuch")


def test_bulk_fetch_transfers_bytes():
    sim, _link, client, server = build()
    server.register("Fetch", lambda ctx, args: ("meta", args["n"]))
    conn = client.connect("s")
    result = call(sim, conn, "Fetch", {"n": 50_000})
    assert result.result == "meta"
    assert result.bulk_bytes == 50_000


def test_bulk_store_delivers_bytes_to_handler():
    sim, _link, client, server = build()
    server.register("Store", lambda ctx, args: {"got": ctx.received_bytes})
    conn = client.connect("s")
    result = call(sim, conn, "Store", {}, send_size=30_000)
    assert result.result["got"] == 30_000


def test_dead_server_raises_connection_dead():
    sim, link, client, server = build()
    link.set_up(False)
    conn = client.connect("s")
    with pytest.raises(ConnectionDead):
        sim.run(conn.call("Echo", max_retries=2))
    assert client.liveness.silent_for("s") == float("inf")


def test_lossy_link_still_completes_calls():
    sim, _link, client, server = build(loss=0.05, seed=3)
    server.register("Echo", lambda ctx, args: args)
    conn = client.connect("s")
    for i in range(20):
        assert call(sim, conn, "Echo", i).result == i


def test_duplicate_requests_not_reexecuted():
    sim, _link, client, server = build(loss=0.15, seed=5)
    counter = {"runs": 0}

    def handler(ctx, args):
        counter["runs"] += 1
        yield ctx.sim.sleep(0.2)
        return counter["runs"]

    server.register("Once", handler)
    conn = client.connect("s")
    for expected in (1, 2, 3, 4, 5):
        result = call(sim, conn, "Once")
        assert result.result == expected
    assert counter["runs"] == 5


def test_calls_on_one_connection_serialize():
    sim, _link, client, server = build()

    def handler(ctx, args):
        yield ctx.sim.sleep(1.0)
        return ctx.sim.now

    server.register("Slow", handler)
    conn = client.connect("s")

    def two_calls():
        first = conn.call("Slow")
        second = conn.call("Slow")
        a = yield first
        b = yield second
        return a.result, b.result

    a, b = sim.run(sim.process(two_calls()))
    assert b - a >= 1.0


def test_separate_connections_run_concurrently():
    sim, _link, client, server = build(client_host=IDEAL,
                                       server_host=IDEAL)

    def handler(ctx, args):
        yield ctx.sim.sleep(1.0)
        return ctx.sim.now

    server.register("Slow", handler)
    conn_a = client.connect("s")
    conn_b = client.connect("s")

    def two_calls():
        first = conn_a.call("Slow")
        second = conn_b.call("Slow")
        a = yield first
        b = yield second
        return a.result, b.result

    a, b = sim.run(sim.process(two_calls()))
    assert abs(b - a) < 0.5


def test_ping_measures_rtt_and_liveness():
    sim, _link, client, server = build()
    rtt = sim.run(client.ping("s"))
    assert 0 < rtt < 0.1
    assert client.liveness.silent_for("s") == 0.0


def test_padded_ping_seeds_bandwidth_estimate():
    sim, _link, client, server = build(profile=MODEM)
    sim.run(client.ping("s"))
    sim.run(client.ping("s", pad=4096))
    bw = client.estimator("s").bandwidth.bits_per_sec
    assert bw is not None
    assert 4_000 < bw < 12_000


def test_ping_to_dead_peer_raises():
    sim, link, client, server = build()
    link.set_up(False)
    with pytest.raises(ConnectionDead):
        sim.run(client.ping("s"))


def test_every_packet_refreshes_shared_liveness():
    """Bulk traffic keeps the peer alive without extra keepalives."""
    sim, _link, client, server = build()
    server.register("Fetch", lambda ctx, args: (None, args["n"]))
    conn = client.connect("s")
    call(sim, conn, "Fetch", {"n": 100_000})
    assert client.liveness.silent_for("s") < 1.0
    assert server.liveness.silent_for("c") < 1.0


def test_modem_transfer_time_is_wire_limited():
    sim, _link, client, server = build(profile=MODEM)
    server.register("Fetch", lambda ctx, args: (None, args["n"]))
    conn = client.connect("s")
    start = sim.now
    call(sim, conn, "Fetch", {"n": 96_000})
    elapsed = sim.now - start
    # 96 KB at ~7 Kb/s goodput is roughly 110 s; allow generous slack.
    assert 90 < elapsed < 200
