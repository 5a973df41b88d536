"""Segmented day-by-day fleet driver: the resumable scenario family.

A checkpointed fleet run never holds a live world across a day
boundary.  Each day unit is its own simulation: restore the shard from
the previous boundary's :class:`~repro.ckpt.state.ShardState`, run one
day of planned activity, capture the next boundary state, tear down.
The from-scratch run and ``repro ckpt extend`` both execute exactly
this loop — extension merely starts it at a later day with a state
loaded from disk — so byte-identical output is a property of the
construction, not a hope.

Two things make the segmentation sound:

* **Plans are drawn, not improvised.**  Each client's day — wake time,
  op times, outage/commute windows — is drawn up-front from dedicated
  plan streams whose positions live in the checkpoint.  Knowing the
  whole day lets the driver hydrate a client only for the sessions in
  which something actually happens.
* **Clients park through the PR-2 snapshot path.**  A quiescent client
  (idle longer than ``swap_window``) is serialized with
  :func:`repro.faults.persistence.snapshot_venus`, crashed, and
  rehydrated just in time for its next scheduled event; resident state
  is O(active clients), and every rehydration goes through reconnection
  validation like any restarted Venus.

Every content payload the driver writes carries an explicit
deterministic tag — auto-tagged :class:`SyntheticContent` would leak a
process-global counter into the pickled state and break cross-process
state hashes.
"""

from dataclasses import dataclass

from repro.ckpt.state import (
    ShardState,
    capture_client,
    capture_server,
    check_schema,
    hydrate_client,
    restore_server,
)
from repro.net import ETHERNET, Network
from repro.net.host import SERVER_1995
from repro.sim import RandomStreams, Simulator
from repro.spec.fleet import (
    DAY,
    FleetWorld,
    admin_update,
    client_host,
    client_op,
    mean_op_gap,
)


@dataclass(frozen=True)
class CkptOptions:
    """Identity-bearing knobs of a checkpointed run.

    All of these enter the manifest: two checkpoints are only
    comparable (and a checkpoint only extendable) when they agree.
    """

    day_seconds: float = DAY        # sim seconds per day unit
    swap_window: float = 3600.0     # idle gap that parks a client
    settle_seconds: float = 300.0   # drain time before a mid-day park
    wake_jitter: float = 600.0      # morning wake spread

    def to_dict(self):
        return {"day_seconds": self.day_seconds,
                "swap_window": self.swap_window,
                "settle_seconds": self.settle_seconds,
                "wake_jitter": self.wake_jitter}


@dataclass
class DaySummary:
    """What one day unit reports back to the store."""

    day: int
    dispatched: int
    sim_seconds: float
    events: int = 0
    swap_out: int = 0
    swap_in: int = 0
    resident_max: int = 0
    stream_stats: dict = None


class _World:
    """Mutable per-day driver context shared by the client processes."""

    def __init__(self, sim, net, server, streams, config, options,
                 family, day, day_end):
        self.sim = sim
        self.net = net
        self.server = server
        self.streams = streams
        self.config = config
        self.options = options
        self.family = family
        self.day = day
        self.day_end = day_end
        self.parked = {}        # name -> ClientState
        self.resident = {}      # name -> (kind, venus, link)
        self.links = {}
        self.op_counters = {}
        self.shared = []
        self.system = []
        self.extra = []
        self.swap_out = 0
        self.swap_in = 0
        self.resident_max = 0


# ----------------------------------------------------------------------
# the world: a restored server's volumes, and the day-0 build


def _volume_lists(server):
    """(shared, system, extra) volume lists, mount order, by prefix."""
    shared, system, extra = [], [], []
    for prefix, volume in server.registry._mounts.items():
        if prefix[:2] == ("coda", "project"):
            shared.append(volume)
        elif prefix[:2] == ("coda", "misc"):
            system.append(volume)
        elif prefix[:2] == ("coda", "extra"):
            extra.append(volume)
    return shared, system, extra


def initial_state(shard, config, options):
    """The parked day-0 world: populated volumes, warmed caches.

    Built by :class:`repro.spec.fleet.FleetWorld`, the same builder as
    the live fleets, then every client is parked through the
    snapshot path, so day 0 starts — like every later day — from a
    :class:`ShardState`.  The construction simulator never runs; it
    exists only because Venus and the server need one to be built
    against.
    """
    world = FleetWorld(config)
    server = world.server
    clients = {}
    for name, kind, venus, _link, _rng in world.clients():
        clients[name] = capture_client(name, kind, venus, 0)
        venus.crash()
        server.callbacks.drop_client(name)
        server._client_conns.pop(name, None)
    return ShardState(
        scenario=shard.scenario, family=shard.family,
        shard_index=shard.index, seed=shard.seed,
        day=0, time=0.0, day_seconds=options.day_seconds,
        server=capture_server(server), clients=clients,
        rng=world.streams.state(), admin_counter=0)


# ----------------------------------------------------------------------
# day plans: the whole day drawn up-front from checkpointed streams


def _scaled_hour(options, t):
    """Hour-of-day in [0, 24) with the day compressed to day_seconds."""
    return (t % options.day_seconds) / options.day_seconds * 24.0


def _plan_ops(name, config, options, streams, family, start, end):
    """Wake + op times for one client-day, from its plan stream."""
    rng = streams.stream("ckpt-plan::" + name)
    mean_gap = mean_op_gap(config, options.day_seconds)
    t = start + rng.uniform(0, options.wake_jitter)
    events = [(t, "wake")]
    while True:
        gap = rng.expovariate(1.0 / mean_gap)
        if family == "commuter":
            hour = _scaled_hour(options, t)
            if not config.work_start <= hour < config.work_end:
                gap /= max(config.off_hours_activity, 1e-6)
        t += gap
        if t >= end:
            return events
        events.append((t, "op"))


def _plan_outages(name, kind, config, options, streams, family,
                  start, end):
    """Down/up link windows for one client-day (bursty, as live)."""
    if family == "commuter" and kind == "laptop":
        return _plan_commutes(name, config, options, streams, start, end)
    rng = streams.stream("outage::" + name)
    if family == "commuter":
        per_day = config.desktop_outages_per_day
    else:
        per_day = (config.desktop_outages_per_day if kind == "desktop"
                   else config.laptop_commutes_per_day)
    events = []
    t = start
    while True:
        t += rng.expovariate(per_day / options.day_seconds)
        if t >= end:
            return events
        bounces = 1 + (2 if rng.random() < config.flaky_reconnect_prob
                       else 0)
        for bounce in range(bounces):
            duration = (rng.expovariate(
                1.0 / (config.outage_minutes * 60.0)) if bounce == 0
                else rng.uniform(20.0, 120.0))
            events.append((t, "down"))
            t += duration
            if t >= end:
                return events        # morning reconnect = next day's wake
            events.append((t, "up"))
            if bounce < bounces - 1:
                t += rng.uniform(30.0, 300.0)
                if t >= end:
                    return events


def _plan_commutes(name, config, options, streams, start, end):
    """The two diurnal commute windows, jittered, for one laptop-day."""
    rng = streams.stream("commute::" + name)
    commute = config.commute_minutes * 60.0
    scale = options.day_seconds / 24.0
    events = []
    for edge_hour in (config.work_start, config.work_end):
        depart = (start + edge_hour * scale - commute
                  + rng.uniform(-600.0, 600.0))
        duration = commute * rng.uniform(0.8, 1.3)
        if depart <= start:
            continue
        if depart >= end:
            continue
        events.append((depart, "down"))
        if depart + duration < end:
            events.append((depart + duration, "up"))
    return events


_EVENT_ORDER = {"down": 0, "up": 1, "wake": 2, "op": 3}


def plan_client_day(name, kind, config, options, streams, family,
                    start, end):
    """The merged, session-split schedule for one client-day.

    Returns a list of *sessions*; each session is a list of
    ``(time, kind)`` events separated by gaps no longer than
    ``swap_window``.  The client is resident only inside sessions.
    """
    events = _plan_ops(name, config, options, streams, family, start, end)
    events += _plan_outages(name, kind, config, options, streams, family,
                            start, end)
    events.sort(key=lambda ev: (ev[0], _EVENT_ORDER[ev[1]]))
    sessions = []
    current = []
    for event in events:
        if current and event[0] - current[-1][0] > options.swap_window:
            sessions.append(current)
            current = []
        current.append(event)
    if current:
        sessions.append(current)
    return sessions


# ----------------------------------------------------------------------
# in-day processes


def _hydrate(world, name):
    """Bring a parked client back; returns (venus, link)."""
    state = world.parked.pop(name)
    link = world.links.get(name)
    if link is None:
        link = world.net.add_link(name, "server", profile=ETHERNET)
        world.links[name] = link
    venus = hydrate_client(state, world.sim, world.net,
                           client_host(state.kind))
    world.resident[name] = (state.kind, venus, link)
    world.resident_max = max(world.resident_max, len(world.resident))
    world.swap_in += 1
    obs = world.sim.obs
    obs.event("checkpoint_restore", scope="client", node=name,
              day=world.day, cml=state.snapshot.cml_len)
    obs.metrics.counter("ckpt.swap_in").inc()
    obs.metrics.gauge("ckpt.resident").set(len(world.resident))
    return venus, link


def _park(world, name):
    """Swap a resident client out to its snapshot mid-day."""
    kind, venus, _link = world.resident.pop(name)
    parked = capture_client(name, kind, venus,
                            world.op_counters.get(name, 0))
    world.parked[name] = parked
    world.swap_out += 1
    obs = world.sim.obs
    obs.event("checkpoint_write", scope="client", node=name,
              day=world.day, cml=parked.snapshot.cml_len)
    obs.metrics.counter("ckpt.swap_out").inc()
    obs.metrics.gauge("ckpt.resident").set(len(world.resident))
    world.server.callbacks.drop_client(name)
    world.server._client_conns.pop(name, None)
    venus.crash()


def _client_day(world, name, sessions):
    """One client's day: hydrate per session, execute, park between."""
    sim = world.sim
    config = world.config
    rng = world.streams.stream("client::" + name)
    for index, session in enumerate(sessions):
        first_time = session[0][0]
        if first_time > sim.now:
            yield sim.sleep(first_time - sim.now)
        venus, link = _hydrate(world, name)
        if session[0][1] in ("wake", "op"):
            # Sessions opening with a link event connect (or not)
            # through that event's own handler.
            link.set_up(True)
            yield from venus.connect()
        for when, kind in session:
            if when > sim.now:
                yield sim.sleep(when - sim.now)
            if kind == "down":
                link.set_up(False)
                venus.handle_disconnection()
            elif kind == "up":
                link.set_up(True)
                yield from venus.connect()
            elif kind == "op":
                counter = world.op_counters.get(name, 0) + 1
                world.op_counters[name] = counter
                try:
                    op = client_op(venus, config, world.shared, world.extra,
                                   rng, counter, ("ckpt", name, counter))
                    if op is not None:
                        yield from op
                except Exception:
                    # Misses and races with planned outages are part
                    # of life.
                    pass
            # "wake" carries no action: hydration already connected.
        park_at = session[-1][0] + world.options.settle_seconds
        if park_at > sim.now:
            yield sim.sleep(park_at - sim.now)
        _park(world, name)


def _admin_day(world):
    """The administrator's day: the live families' update, on the
    day unit's clock and the checkpointed counter."""
    sim = world.sim
    rng = world.streams.stream("admin")
    volumes = world.system + world.extra
    while True:
        rate = world.config.system_updates_per_day * len(volumes)
        yield sim.sleep(rng.expovariate(rate / world.options.day_seconds))
        world.admin_counter += 1
        admin_update(world.server, volumes, rng, sim.now,
                     ("admin", world.admin_counter))


# ----------------------------------------------------------------------
# the day loop body


def run_day(shard, config, options, state, observatory):
    """Run one day unit from ``state``; returns (new_state, summary).

    The caller owns the observatory (one fresh instance per day) and
    collects rows afterwards; this function records the shard-scope
    ``checkpoint_restore``/``checkpoint_write`` events into it and
    tears the whole world down before returning.
    """
    check_schema(state)
    start = state.time
    end = start + options.day_seconds
    sim = Simulator(start_time=start)
    observatory.install(sim)
    streams = RandomStreams(config.seed)
    streams.restore(state.rng)
    sim.rand = streams
    net = Network(sim, rng=streams.stream("net"))
    server = restore_server(state.server, sim, net, SERVER_1995)
    world = _World(sim, net, server, streams, config, options,
                   state.family, state.day, end)
    world.shared, world.system, world.extra = _volume_lists(server)
    world.admin_counter = state.admin_counter
    observatory.event("checkpoint_restore", scope="shard",
                      day=state.day, clients=len(state.clients))
    # repro: allow[DET003] clients dict is built in spec order and
    # pickle preserves insertion order, so iteration is a pure
    # function of the checkpoint bytes
    for name, client in state.clients.items():
        world.parked[name] = client
        world.op_counters[name] = client.op_counter
        sessions = plan_client_day(name, client.kind, config, options,
                                   streams, state.family, start, end)
        if sessions:
            sim.process(_client_day(world, name, sessions),
                        name="ckpt-day-%s" % name)
    sim.process(_admin_day(world), name="admin")
    sim.run(until=end)

    clients = {}
    for name in state.clients:
        resident = world.resident.get(name)
        if resident is not None:
            kind, venus, _link = resident
            clients[name] = capture_client(
                name, kind, venus, world.op_counters.get(name, 0))
        else:
            clients[name] = world.parked[name]
    new_state = ShardState(
        scenario=state.scenario, family=state.family,
        shard_index=state.shard_index, seed=state.seed,
        day=state.day + 1, time=end,
        day_seconds=options.day_seconds,
        server=capture_server(server), clients=clients,
        rng=streams.state(), admin_counter=world.admin_counter)
    observatory.event("checkpoint_write", scope="shard",
                      day=state.day, clients=len(clients),
                      resident=len(world.resident))
    observatory.metrics.counter("ckpt.days_completed").inc()
    observatory.uninstall()
    summary = DaySummary(
        day=state.day, dispatched=sim.dispatched,
        sim_seconds=options.day_seconds,
        swap_out=world.swap_out, swap_in=world.swap_in,
        resident_max=world.resident_max)
    return new_state, summary
