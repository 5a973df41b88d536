"""Network routing and sockets."""

import pytest

from repro.net import ETHERNET, Network
from tests.conftest import queued_socket


def make_net(sim):
    net = Network(sim)
    net.add_link("client", "server", profile=ETHERNET)
    return net


def test_socket_send_receive(sim):
    net = make_net(sim)
    a, _ = queued_socket(net, "client", 10)
    _, inbox = queued_socket(net, "server", 20)

    def receiver():
        datagram = yield inbox.get()
        return (datagram.payload, datagram.src, datagram.src_port)

    proc = sim.process(receiver())
    a.send("server", 20, {"hello": 1}, size=100)
    assert sim.run(proc) == ({"hello": 1}, "client", 10)


def test_no_route_drops_silently(sim):
    net = make_net(sim)
    a, _ = queued_socket(net, "client", 10)
    a.send("mars", 20, "x", size=10)
    sim.run()  # nothing raised, nothing delivered


def test_unbound_port_drops(sim):
    net = make_net(sim)
    a, _ = queued_socket(net, "client", 10)
    a.send("server", 99, "x", size=10)
    sim.run()


def test_duplicate_bind_rejected(sim):
    net = make_net(sim)
    queued_socket(net, "client", 10)
    with pytest.raises(ValueError):
        queued_socket(net, "client", 10)


def test_closed_socket_rejects_send_and_drops_arrivals(sim):
    net = make_net(sim)
    a, _ = queued_socket(net, "client", 10)
    b, inbox = queued_socket(net, "server", 20)
    b.close()
    a.send("server", 20, "x", size=10)
    sim.run()
    assert not inbox._items
    with pytest.raises(RuntimeError):
        b.send("client", 10, "x", size=10)


def test_port_reusable_after_close(sim):
    net = make_net(sim)
    queued_socket(net, "client", 10)[0].close()
    queued_socket(net, "client", 10)


def test_link_between_lookup(sim):
    net = make_net(sim)
    assert net.link_between("client", "server") is not None
    assert net.link_between("server", "client") is not None
    assert net.link_between("client", "mars") is None


def test_pending_counts_undrained_datagrams(sim):
    net = make_net(sim)
    a, _ = queued_socket(net, "client", 10)
    _, inbox = queued_socket(net, "server", 20)
    a.send("server", 20, "one", size=10)
    a.send("server", 20, "two", size=10)
    sim.run()
    assert len(inbox._items) == 2
