"""The clock CPU and the endpoint's callback chains against the lock
oracle.

Two nodes, each an RPC2 endpoint on its own host, share one link.  A
random plan mixes foreground ``cpu.use()`` calls, pings, SFTP stores
and fetches in both directions, link loss and node crashes (the
endpoint shuts down and a fresh one boots after a downtime).  The plan
runs once on :class:`~repro.rpc2.Rpc2Endpoint` and once on
:class:`tests.rpc2.lock_oracle.LoopEndpoint`, the lock-held CPU behind
two pacing processes.  Every packet's departure and arrival instant,
every instant a received packet is dispatched (its CPU finish) and
every foreground use's finish must be bit-equal between the two.

The oracle also keeps the retired process-per-ping design and runs
generator handlers (``Fetch`` here, with a disk delay, as Vice's are)
as child processes, so the same instants hold the endpoint's ping
callback chain and its ``yield from`` handlers to them.

Two planted mutants must be caught: a send that books the CPU when the
packet is queued, not when the packet ahead of it finishes, lets a
burst jump ahead of foreground work and of received packets; and a
ping that queues its Ping at once, without the same-instant hop where
the ping process used to start, jumps ahead of a foreground operation
asked for at the same instant.
"""

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from repro.net import ETHERNET, MODEM, WAVELAN, Network
from repro.net.host import IDEAL, LAPTOP_1995, SERVER_1995
from repro.rpc2 import ConnectionDead, RemoteError, Rpc2Endpoint
from repro.rpc2.endpoint import _Ping
from repro.sim import RandomStreams, Simulator
from tests.rpc2.lock_oracle import LoopEndpoint

NODES = ("laptop", "server")
PORT = 2432
#: Simulated seconds each plan runs: its actions start within 30 s,
#: and a retried call or transfer settles long before this.
HORIZON = 600.0
#: The server-side disk delay of a ``Fetch`` (Vice's ``per_fetch``).
FETCH_DELAY = 0.015

nodes = st.sampled_from(NODES)
transfers = st.tuples(st.sampled_from(["Store", "Fetch"]), nodes,
                      st.integers(0, 60_000))
uses = st.tuples(st.just("use"), nodes, st.floats(1e-4, 0.2))
actions = st.one_of(
    transfers, transfers, uses, uses,
    st.tuples(st.just("ping"), nodes, st.integers(0, 2_000)),
    st.tuples(st.just("crash"), nodes, st.floats(0.1, 30.0)),
)
plans = st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                           actions),
                 min_size=2, max_size=12)
worlds = st.tuples(st.sampled_from([ETHERNET, WAVELAN, MODEM]),
                   st.sampled_from([0.0, 0.02, 0.1]),
                   st.sampled_from([LAPTOP_1995, SERVER_1995, IDEAL]),
                   st.sampled_from([SERVER_1995, LAPTOP_1995, IDEAL]),
                   st.integers(0, 2 ** 16))


def instants(endpoint_cls, world, plan):
    """What happened when, for ``plan`` run on ``endpoint_cls``."""
    profile, loss, laptop_host, server_host, seed = world
    hosts = {"laptop": laptop_host, "server": server_host}
    sim = Simulator()
    net = Network(sim, rng=RandomStreams(seed).stream("net"))
    seen = {"departed": [], "arrived": [], "dispatched": [],
            "finished": {}}

    def log(key, *fields):
        seen[key].append((sim.now,) + fields)

    transmit, deliver = net.transmit, net._deliver

    def depart(datagram):
        log("departed", datagram.src, datagram.size,
            type(datagram.payload).__name__)
        transmit(datagram)

    def arrive(datagram):
        log("arrived", datagram.dst, datagram.size,
            type(datagram.payload).__name__)
        deliver(datagram)

    net.transmit, net._deliver = depart, arrive
    net.add_link("laptop", "server", profile=profile, loss_rate=loss)
    endpoints = {}

    def boot(node, first_conn_id=1):
        endpoint = endpoint_cls(sim, net, node, PORT, hosts[node],
                                default_bps=profile.bandwidth_bps,
                                first_conn_id=first_conn_id)
        dispatch = endpoint._dispatch

        def absorbed(peer, packet):
            log("dispatched", node, type(packet).__name__)
            dispatch(peer, packet)

        endpoint._dispatch = absorbed
        endpoint.register("Store", lambda ctx, args: ctx.received_bytes)
        endpoint.register("Fetch", fetch)
        endpoints[node] = endpoint

    def fetch(ctx, args):
        yield sim.sleep(FETCH_DELAY)
        return args, args

    def act(index, what, node, amount):
        endpoint = endpoints[node]
        peer = NODES[1 - NODES.index(node)]
        if endpoint.socket.closed:
            return                          # the node is down
        if what == "crash":
            endpoint.shutdown()

            def restart():
                yield sim.sleep(amount)
                boot(node, endpoint._next_conn_id)

            sim.process(restart(), name="restart")
            return

        def body():
            try:
                if what == "use":
                    yield from endpoint.cpu.use(amount)
                    seen["finished"][index] = sim.now
                elif what == "ping":
                    yield endpoint.ping(peer, pad=amount)
                elif what == "Store":
                    yield endpoint.connect(peer).call("Store",
                                                      send_size=amount)
                else:
                    yield endpoint.connect(peer).call("Fetch", amount)
            except (ConnectionDead, RemoteError):
                pass

        sim.process(body(), name=what, owner=node)

    def script():
        for index, (gap, (what, node, amount)) in enumerate(plan):
            if gap:
                yield sim.sleep(gap)
            act(index, what, node, amount)

    for node in NODES:
        boot(node)
    sim.process(script(), name="script")
    sim.run(until=HORIZON)
    return seen


class QueueTimeEndpoint(Rpc2Endpoint):
    """Planted mutant: every send books the CPU when it is queued."""

    def _send(self, peer, packet):
        if not self.socket.closed:
            self._start_send(peer, packet)


class SyncPingEndpoint(Rpc2Endpoint):
    """Planted mutant: a ping queues its Ping at once, with no hop."""

    def ping(self, peer, pad=0):
        seq = next(self._ping_seq)
        ping = self._ping_waiters[seq] = _Ping(self, peer, pad, seq)
        ping.start(None)
        return ping.done


#: Three stores fill the laptop's outbox, the server crashes, and a
#: ping and a foreground operation are asked for at the same instant:
#: the Ping must queue behind the operation's CPU time.
PING_BEHIND_USE = ((ETHERNET, 0.0, LAPTOP_1995, SERVER_1995, 0),
                   [(0.0, ("Store", "laptop", 60_000)),
                    (0.0, ("Store", "laptop", 60_000)),
                    (0.0, ("Store", "laptop", 60_000)),
                    (0.0, ("crash", "server", 0.1)),
                    (0.0, ("ping", "laptop", 0)),
                    (0.0, ("use", "laptop", 0.125))])


def differential(endpoint_cls, **options):
    @settings(max_examples=100, derandomize=True, database=None, **options)
    @given(worlds, plans)
    # A 60 KB store: its acks arrive while the laptop's burst is queued.
    @example((WAVELAN, 0.0, LAPTOP_1995, SERVER_1995, 0),
             [(0.0, ("Store", "laptop", 60_000))])
    # A foreground operation lands mid-burst, then the sender crashes.
    @example((WAVELAN, 0.02, LAPTOP_1995, SERVER_1995, 1),
             [(0.0, ("Store", "laptop", 60_000)),
              (0.01, ("use", "laptop", 0.005)),
              (0.2, ("crash", "laptop", 5.0))])
    @example(*PING_BEHIND_USE)
    def check(world, plan):
        assert (instants(endpoint_cls, world, plan)
                == instants(LoopEndpoint, world, plan))
    return check


test_every_instant_matches_the_lock_oracle = differential(Rpc2Endpoint)


def test_a_send_that_books_the_cpu_when_queued_is_caught():
    with pytest.raises(AssertionError):
        differential(QueueTimeEndpoint,
                     phases=[Phase.explicit, Phase.generate])()


def test_a_ping_without_its_hop_is_caught():
    def ping_departures(endpoint_cls):
        return [when for when, _node, _size, kind
                in instants(endpoint_cls, *PING_BEHIND_USE)["departed"]
                if kind == "Ping"]

    behind_use = ping_departures(LoopEndpoint)
    assert behind_use == [pytest.approx(0.125574)]
    assert ping_departures(Rpc2Endpoint) == behind_use
    assert ping_departures(SyncPingEndpoint) == [pytest.approx(0.000574)]
