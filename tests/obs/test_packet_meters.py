"""The per-packet counters hold their handles — for one observatory.

``LinkDirection`` and ``Rpc2Endpoint`` look their six per-packet
counters up once and keep them while ``sim.obs`` stays the same
observatory.  The oracle here is the plain-integer accounting both
classes keep anyway (``LinkStats``, ``packets_out``/``bytes_out``):
whatever observatory is installed while packets move must see exactly
the packets that moved during its tenure, on rows with the same
labels the lookup-per-packet form produced.
"""

from repro.net import ETHERNET, Network
from repro.net.host import LAPTOP_1995, SERVER_1995
from repro.obs import Observatory
from repro.rpc2 import Rpc2Endpoint
from repro.sim import RandomStreams, Simulator


def build():
    sim = Simulator()
    net = Network(sim, rng=RandomStreams(0).stream("net"))
    link = net.add_link("c", "s", profile=ETHERNET)
    client = Rpc2Endpoint(sim, net, "c", 2432, LAPTOP_1995)
    server = Rpc2Endpoint(sim, net, "s", 2432, SERVER_1995)
    server.register("Echo", lambda ctx, args: {"echo": args})
    return sim, link, client, server


def integers(link, client, server):
    stats = link.stats()
    return {"link.packets_sent": stats.packets_sent,
            "link.bytes_sent": stats.bytes_sent,
            "link.packets_delivered": stats.packets_delivered,
            "link.bytes_delivered": stats.bytes_delivered,
            "rpc.packets_out": client.packets_out + server.packets_out,
            "rpc.bytes_out": client.bytes_out + server.bytes_out}


def totals(observatory):
    return {name: observatory.metrics.total(name)
            for name in ("link.packets_sent", "link.bytes_sent",
                         "link.packets_delivered", "link.bytes_delivered",
                         "rpc.packets_out", "rpc.bytes_out")}


def test_each_observatory_sees_the_packets_of_its_own_tenure():
    sim, link, client, server = build()
    conn = client.connect("s")
    first, second = Observatory(), Observatory()
    seen = {first: dict.fromkeys(totals(first), 0),
            second: dict.fromkeys(totals(second), 0)}
    for observatory in (first, second, first, None, second):
        if observatory is None:
            sim.obs.uninstall()
        else:
            observatory.install(sim)
        before = integers(link, client, server)
        sim.run(conn.call("Echo", {"x": 1}))
        after = integers(link, client, server)
        assert after["rpc.packets_out"] > before["rpc.packets_out"]
        if observatory is not None:
            for name in after:
                seen[observatory][name] += after[name] - before[name]
    assert totals(first) == seen[first]
    assert totals(second) == seen[second]
    assert totals(first)["link.packets_sent"] > 0
    assert totals(second)["link.packets_sent"] > 0


def test_rows_carry_the_labels_a_lookup_per_packet_would():
    sim, _link, client, _server = build()
    observatory = Observatory(sim)
    conn = client.connect("s")
    sim.run(conn.call("Echo", {"x": 1}))
    metrics = observatory.metrics
    assert {inst.label_string
            for inst in metrics.with_name("link.packets_sent")} \
        == {"link=c->s", "link=s->c"}
    assert {inst.label_string
            for inst in metrics.with_name("link.bytes_delivered")} \
        == {"link=c->s", "link=s->c"}
    kinds = {(inst.labels["node"], inst.labels["kind"])
             for inst in metrics.with_name("rpc.packets_out")}
    assert ("c", "Request") in kinds and ("s", "Reply") in kinds
    # The handle and a fresh lookup are the same instrument.
    assert metrics.counter("rpc.packets_out", node="c", kind="Request") \
        .value >= 1
    assert len(metrics.with_name("rpc.bytes_out")) == len(kinds)


def test_a_direction_that_delivers_nothing_has_no_delivered_rows():
    sim, link, client, _server = build()
    observatory = Observatory(sim)
    link.set_up(False)
    client.ping("s").defuse()
    sim.run(until=1.0)
    metrics = observatory.metrics
    assert metrics.total("link.packets_sent") >= 1
    assert metrics.with_name("link.packets_delivered") == []
    assert metrics.with_name("link.bytes_delivered") == []
