"""The ping gate: events dispatched and processes started per ping
stay flat.

The clock-free twin of ``tests/net/test_packet_gate.py`` for liveness
and bandwidth pings, the bulk of a fleet's packets: one process pings
the server back to back over an idle, loss-free link.  A ping's two
packets cost six dispatches (a send CPU finish, an arrival and a
receive CPU finish each); its hop, its settled event and its expiry
``Timeout`` (which still fires, into nothing, once the Pong has
settled the ping) make nine.  The retired process-per-ping design
added a process bootstrap, the Pong waiter firing into an ``AnyOf``,
the ``AnyOf`` resuming the ping and the finished process resuming its
caller: eleven, and a ``Process`` per ping.
"""

from repro.net import WAVELAN, Network
from repro.net.host import LAPTOP_1995, SERVER_1995
from repro.rpc2 import Rpc2Endpoint
from repro.sim import RandomStreams, Simulator
from repro.sim.process import Process
from tests.rpc2.lock_oracle import ProcessPings

RUNS = (200, 400)
#: Dispatches per ping: nine, plus the pinging process's own start and
#: finish spread over the run.
DISPATCH_BUDGET = 9.0 * 1.01


class ProcessPingEndpoint(ProcessPings, Rpc2Endpoint):
    """Planted mutant: the retired process-per-ping design."""


def back_to_back(monkeypatch, pings, endpoint=Rpc2Endpoint):
    """Ping the server ``pings`` times in a row; returns ``(events
    dispatched, processes started)`` per ping, not counting the
    pinging process."""
    sim = Simulator()
    net = Network(sim, rng=RandomStreams(0).stream("net"))
    net.add_link("laptop", "server", profile=WAVELAN)
    client = endpoint(sim, net, "laptop", 2432, LAPTOP_1995,
                      default_bps=WAVELAN.bandwidth_bps)
    endpoint(sim, net, "server", 2432, SERVER_1995,
             default_bps=WAVELAN.bandwidth_bps)
    started = []
    init = Process.__init__

    def counted(self, *args, **kwargs):
        started.append(self)
        init(self, *args, **kwargs)

    def pinger():
        for _ in range(pings):
            yield client.ping("server")

    with monkeypatch.context() as patch:
        patch.setattr(Process, "__init__", counted)
        sim.process(pinger(), name="pinger")
        sim.run()
    return sim.dispatched / pings, (len(started) - 1) / pings


def test_a_ping_costs_nine_dispatches_and_no_process(monkeypatch):
    (short, short_procs), (long, long_procs) = (
        back_to_back(monkeypatch, pings) for pings in RUNS)
    assert short <= DISPATCH_BUDGET and long <= DISPATCH_BUDGET, \
        (short, long)
    assert abs(long - short) <= 0.01 * short, (short, long)
    assert short_procs == long_procs == 0, (short_procs, long_procs)


def test_the_process_ping_breaks_the_gate(monkeypatch):
    per_ping, procs = back_to_back(monkeypatch, RUNS[0],
                                   ProcessPingEndpoint)
    assert per_ping > DISPATCH_BUDGET, per_ping
    assert procs == 1, procs
