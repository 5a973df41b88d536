"""The fleet world: many Venus clients on their own links to one Vice.

The paper instrumented 16 desktops and 10 laptops for about four weeks
of real use and reported, per client: how often a volume validation
could not even be attempted (no cached stamp), how many were
attempted, what fraction succeeded, and how many per-object
validations each success saved (Figure 9).  Headline numbers: stamps
missing only ~3-4% of the time, ~97-98% of attempts successful, ~50
objects saved per success.

Here the fleet is simulated: every client is a full Venus instance on
its own link to a shared server.  Clients work on a private volume,
read and occasionally write shared project volumes, and read system
volumes that an administrator updates now and then.  Desktops suffer
occasional disconnections (server reboots, network maintenance);
laptops also commute twice a day.  All three Figure 9 phenomena emerge
rather than being injected:

* *missing stamps* — a volume callback break (someone updated a shared
  volume) drops the stamp; if the client disconnects before its next
  hoard walk re-acquires it, the reconnection validation has nothing
  to present;
* *failed validations* — a volume updated while the client was away;
* *objects saved* — everything else.

Two families live here, and the config's class names which one runs:
:class:`FleetConfig` is the Figure 9 fleet (improvised lives, random
outages), :class:`CommuterConfig` the commuter fleet (office hours,
laptops commuting off the network twice a day).  Every fleet body
shares this module's parts: :class:`FleetWorld` builds the world,
:func:`client_op` draws the op mix, :func:`admin_update` is the
administrator's update and :func:`client_report` the Figure 9 row —
for :func:`run_fleet_study` and the checkpointed day driver
(:mod:`repro.ckpt.driver`) alike, which keeps only its own planned day.
"""

from dataclasses import dataclass

from repro.analysis.invariants import attach_client_checkers
from repro.fs.content import SyntheticContent
from repro.net import ETHERNET, Network
from repro.net.host import LAPTOP_1995, SERVER_1995
from repro.server import CodaServer
from repro.sim import RandomStreams, Simulator
from repro.spec.testbed import Testbed, populate_volume, warm_cache
from repro.venus import Venus, VenusConfig

DAY = 86_400.0

#: Client names per fleet family, ``(desktops, laptops)``.  The commuter
#: fleet keeps the Figure 9 fleet's musical register with distinct
#: hosts (these clients commute, those don't).  A population larger
#: than its roster wraps round it, the index appended to the name.
ROSTERS = {
    "figure9": (("bach", "berlioz", "brahms", "chopin", "copland",
                 "dvorak", "gershwin", "gs125", "holst", "ives", "mahler",
                 "messiaen", "mozart", "varicose", "verdi", "vivaldi"),
                ("caractacus", "deidamia", "finlandia", "gloriana",
                 "guntram", "nabucco", "prometheus", "serse", "tosca",
                 "valkyrie")),
    "commuter": (("elgar", "faure", "handel", "haydn", "janacek", "liszt",
                  "purcell", "rameau", "ravel", "satie", "smetana",
                  "tallis", "telemann", "walton", "webern", "wolf"),
                 ("aida", "carmen", "fidelio", "lakme", "louise", "manon",
                  "mignon", "norma", "rusalka", "salome")),
}


@dataclass
class FleetConfig:
    desktops: int = 16
    laptops: int = 10
    days: float = 14.0
    shared_volumes: int = 6
    system_volumes: int = 8
    extra_volumes: int = 12            # roamed into on demand
    files_per_volume: int = 55
    file_size: int = 8_000
    # activity rates (per client)
    private_writes_per_day: float = 30.0
    shared_writes_per_day: float = 3.5
    reads_per_day: float = 60.0
    system_updates_per_day: float = 0.6     # by the administrator
    roams_per_day: float = 8.0         # reads into uncached volumes
    evictions_per_day: float = 6.0     # cache pressure drops a volume
    desktop_outages_per_day: float = 2.0
    laptop_commutes_per_day: float = 3.0
    outage_minutes: float = 18.0
    flaky_reconnect_prob: float = 0.5  # outages come in bursts
    seed: int = 0
    # Prepended to every client name (and therefore to the private
    # volume paths and stream names derived from them).  A sharded
    # fleet (repro.fleetd) gives each shard its own prefix so client
    # identities — and the volumes they own — never collide across
    # shards; the empty default keeps the classic fleet byte-identical.
    name_prefix: str = ""


@dataclass
class CommuterConfig:
    """A fleet living office hours (times in hours of the sim day)."""

    desktops: int = 16
    laptops: int = 12
    days: float = 1.0
    seed: int = 0
    name_prefix: str = ""
    # volumes (as in the Figure 9 fleet)
    shared_volumes: int = 6
    system_volumes: int = 8
    extra_volumes: int = 12
    files_per_volume: int = 55
    file_size: int = 8_000
    # diurnal shape
    work_start: float = 9.0
    work_end: float = 17.5
    commute_minutes: float = 40.0
    off_hours_activity: float = 0.15   # fraction of the in-hours rate
    # in-hours activity rates (per client per day)
    private_writes_per_day: float = 40.0
    shared_writes_per_day: float = 5.0
    reads_per_day: float = 80.0
    roams_per_day: float = 10.0
    evictions_per_day: float = 6.0
    system_updates_per_day: float = 0.6
    desktop_outages_per_day: float = 0.5
    outage_minutes: float = 18.0
    flaky_reconnect_prob: float = 0.5


#: Config class -> the fleet family (and roster) it runs.
FAMILY_OF = {FleetConfig: "figure9", CommuterConfig: "commuter"}


@dataclass
class ClientReport:
    name: str
    kind: str
    missing_pct: float
    attempts: int
    success_pct: float
    objs_per_success: float


def _roster(config, family):
    """``[(name, kind)]`` of a fleet family's clients, in build order."""
    desktops, laptops = ROSTERS[family]
    prefix = config.name_prefix
    return ([(prefix + desktops[i % len(desktops)]
              + ("" if i < len(desktops) else str(i)), "desktop")
             for i in range(config.desktops)]
            + [(prefix + laptops[i % len(laptops)]
                + ("" if i < len(laptops) else str(i)), "laptop")
               for i in range(config.laptops)])


def client_host(kind):
    """The 1995 machine a client of ``kind`` runs on."""
    return LAPTOP_1995 if kind == "laptop" else SERVER_1995


class FleetWorld:
    """One fleet's world, built the same way for every fleet body.

    :func:`run_fleet_study` and the checkpointed day-0 world
    (:mod:`repro.ckpt.driver`) both start here: one server holding the
    shared project, system and roaming volumes, then the clients of
    the config family's roster, each on its own Ethernet link with a
    private volume and a cache warmed from a sample of the shared and
    system volumes.  Every draw comes from the config's seed streams in
    a fixed order, so equal configs build equal worlds.
    """

    def __init__(self, config, observatory=None):
        self.config = config
        self.family = FAMILY_OF[type(config)]
        self.observatory = observatory
        self.sim = Simulator()
        if observatory is not None:
            observatory.install(self.sim)
        self.streams = RandomStreams(config.seed)
        self.net = Network(self.sim, rng=self.streams.stream("net"))
        self.server = CodaServer(self.sim, self.net, "server", SERVER_1995)
        self.shared = [self._volume("/coda/project/p%02d" % i)
                       for i in range(config.shared_volumes)]
        self.system = [self._volume("/coda/misc/s%02d" % i)
                       for i in range(config.system_volumes)]
        self.extra = [self._volume("/coda/extra/e%02d" % i)
                      for i in range(config.extra_volumes)]
        self.built = []         # (name, kind, venus, link), build order

    def _volume(self, mount):
        rng = self.streams.stream("tree::" + mount)
        tree = {mount + "/data": ("dir", 0)}
        for i in range(self.config.files_per_volume):
            size = max(256, int(rng.expovariate(1.0 / self.config.file_size)))
            tree["%s/data/f%03d" % (mount, i)] = ("file", size)
        return populate_volume(self.server, mount, tree)

    def clients(self):
        """Build the roster one client per step; yields
        ``(name, kind, venus, link, rng)``.

        A generator on purpose: Venus starts its daemons when it is
        built, so a caller starts one client's own processes before the
        next client exists, and creation order is schedule order.
        """
        server = self.server
        for name, kind in _roster(self.config, self.family):
            rng = self.streams.stream("client::" + name)
            link = self.net.add_link(name, "server", profile=ETHERNET)
            private = self._volume("/coda/usr/%s" % name)
            venus = Venus(self.sim, self.net, name, "server",
                          client_host(kind),
                          config=VenusConfig(probe_interval=120.0,
                                             hoard_walk_interval=600.0))
            warm_cache(venus, server, private)
            for volume in rng.sample(self.shared, min(3, len(self.shared))):
                warm_cache(venus, server, volume)
            for volume in rng.sample(self.system, min(6, len(self.system))):
                warm_cache(venus, server, volume)
            self.built.append((name, kind, venus, link))
            yield name, kind, venus, link, rng

    def run(self, checkers=None):
        """Start the administrator, run the config's days of the lives
        the caller started, and return ``(desktop_reports,
        laptop_reports)``.

        ``checkers``, when a list, receives the sampled live invariant
        checkers of an instrumented run, swept once the run ends.
        """
        sim = self.sim
        sim.process(_administrator(sim, self.config, self.server,
                                   self.system + self.extra,
                                   self.streams.stream("admin")),
                    name="admin")
        attached = []
        if checkers is not None and self.observatory is not None:
            attached = attach_client_checkers(checkers, [
                Testbed(sim=sim, net=self.net, link=link,
                        server=self.server, venus=venus,
                        obs=self.observatory, streams=self.streams)
                for _name, _kind, venus, link in self.built])
        sim.run(until=self.config.days * DAY)
        for checker in attached:
            checker.check_all()
        desktops, laptops = [], []
        for name, kind, venus, _link in self.built:
            report = client_report(name, kind, venus.validator.stats)
            (desktops if kind == "desktop" else laptops).append(report)
        return desktops, laptops


def client_report(name, kind, stats):
    """A client's Figure 9 row from its validation statistics."""
    return ClientReport(
        name=name, kind=kind,
        missing_pct=100.0 * stats.missing_stamp_fraction,
        attempts=stats.attempts,
        success_pct=100.0 * stats.success_fraction,
        objs_per_success=stats.objects_per_success)


def run_fleet_study(config=None, observatory=None, extras=None,
                    checkers=None):
    """Simulate the fleet; returns (desktop_reports, laptop_reports).

    A :class:`FleetConfig` (the default) runs the Figure 9 fleet: every
    client's improvised life plus random outages.  A
    :class:`CommuterConfig` runs the commuter fleet: lives gated by
    office hours, and laptops that commute instead of suffering random
    outages — so fleetd shards, merges, and verifies both with the same
    machinery.  ``observatory`` optionally attaches a
    :class:`repro.obs.Observatory` before the first component is built;
    observation never schedules events, so an instrumented fleet is
    schedule-identical to a bare one.  ``checkers`` works as in
    :meth:`FleetWorld.run`.  ``extras``, when a dict, receives the
    commuter's family-level metrics (commutes taken, disconnected
    seconds, reintegrated records); the Figure 9 fleet has none.
    """
    config = config or FleetConfig()
    world = FleetWorld(config, observatory)
    commuter = world.family == "commuter"
    sim, streams = world.sim, world.streams
    office_hours = ((config.work_start, config.work_end,
                     config.off_hours_activity) if commuter else None)
    commute_stats = {}
    for name, kind, venus, link, rng in world.clients():
        sim.process(client_life(sim, config, venus, world.shared,
                                world.extra, rng, office_hours),
                    name="life-%s" % name)
        if commuter and kind == "laptop":
            stats = commute_stats[name] = {"commutes": 0,
                                           "disconnected_seconds": 0.0}
            sim.process(_commute_process(
                sim, config, venus, link,
                streams.stream("commute::" + name), stats),
                name="commute-%s" % name)
        else:
            sim.process(outage_process(sim, config, venus, link,
                                       streams.stream("outage::" + name),
                                       kind),
                        name="outage-%s" % name)

    desktops, laptops = world.run(checkers)
    if commuter and isinstance(extras, dict):
        extras["commutes"] = sum(
            stats["commutes"] for stats in commute_stats.values())
        extras["disconnected_seconds"] = round(sum(
            stats["disconnected_seconds"]
            for stats in commute_stats.values()), 1)
        extras["cml_reintegrated"] = sum(
            venus.cml.stats.reintegrated_records
            for _name, _kind, venus, _link in world.built)
    return desktops, laptops


def mean_op_gap(config, day):
    """Mean seconds between one client's ops, for a day of ``day`` s."""
    return day / (config.private_writes_per_day
                  + config.shared_writes_per_day
                  + config.reads_per_day
                  + config.roams_per_day
                  + config.evictions_per_day)


def client_life(sim, config, venus, shared, extra, rng, office_hours=None):
    """One client's weeks: wake, connect, then ops of the fleet mix.

    ``office_hours`` is ``(start, end, activity)`` in hours of the day:
    a gap drawn outside ``[start, end)`` is stretched by
    ``1 / activity``, so evenings and nights see a trickle of activity
    instead of none.  Disconnections come from the caller's own
    outage or commute process.
    """
    yield sim.sleep(rng.uniform(0, 600))
    yield from venus.connect()
    mean_gap = mean_op_gap(config, DAY)
    counter = 0
    while True:
        gap = rng.expovariate(1.0 / mean_gap)
        if office_hours is not None:
            start, end, activity = office_hours
            if not start <= (sim.now % DAY) / 3600.0 < end:
                gap /= max(activity, 1e-6)
        yield sim.sleep(gap)
        counter += 1
        try:
            op = client_op(venus, config, shared, extra, rng, counter,
                           ("fleet", venus.node, counter))
            if op is not None:
                yield from op
        except Exception:
            # Misses and races with outages are part of life.
            pass


def client_op(venus, config, shared, extra, rng, counter, tag):
    """Draw one op of the fleet mix and return its Venus generator.

    The mix is reads (stat a cached object), private and shared writes
    (content tagged ``tag``), roams (read from a volume that may not be
    cached: its stamp waits for the next hoard walk) and evictions;
    an eviction is done on the spot and returns None.  ``counter``
    numbers the client's ops and picks the written file.
    """
    reads = config.reads_per_day
    private = reads + config.private_writes_per_day
    shared_writes = private + config.shared_writes_per_day
    roams = shared_writes + config.roams_per_day
    pick = rng.random() * (roams + config.evictions_per_day)
    if pick < reads:
        entry = rng.choice(venus.cache.entries())
        if entry.path:
            return venus.stat(entry.path)
        return venus.readdir("/coda/usr/%s/data" % venus.node)
    if pick < private:
        return venus.write_file(
            "/coda/usr/%s/data/w%d" % (venus.node, counter % 60),
            SyntheticContent(rng.randrange(2_000, 20_000), tag=tag))
    if pick < shared_writes:
        volume = rng.choice(shared)
        return venus.write_file(
            "/coda/project/p%02d/data/%s-%d"
            % (shared.index(volume), venus.node, counter % 40),
            SyntheticContent(rng.randrange(2_000, 20_000), tag=tag))
    if pick < roams:
        return venus.read_file(
            "/coda/extra/e%02d/data/f%03d"
            % (rng.randrange(len(extra)),
               rng.randrange(config.files_per_volume)))
    _evict_volume(venus, rng)
    return None


def outage_process(sim, config, venus, link, rng, kind):
    """Disconnections happen on their own clock, and come in bursts."""
    outages = (config.desktop_outages_per_day if kind == "desktop"
               else config.laptop_commutes_per_day)
    while True:
        yield sim.sleep(rng.expovariate(outages / DAY))
        bounces = 1 + (2 if rng.random() < config.flaky_reconnect_prob
                       else 0)
        for bounce in range(bounces):
            link.set_up(False)
            venus.handle_disconnection()
            duration = (rng.expovariate(
                1.0 / (config.outage_minutes * 60.0)) if bounce == 0
                else rng.uniform(20.0, 120.0))
            yield sim.sleep(duration)
            link.set_up(True)
            yield from venus.connect()
            if bounce < bounces - 1:
                # The link bounces again before a hoard walk can
                # restore any stamps dropped by failed validations.
                yield sim.sleep(rng.uniform(30.0, 300.0))


def _commute_process(sim, config, venus, link, rng, stats):
    """Twice a day the laptop leaves the network: commute in, commute
    out.  Departure times jitter around the office-hour boundaries, and
    the laptop reconnects (triggering validation and any queued
    reintegration) when it arrives."""
    commute = config.commute_minutes * 60.0
    day = 0
    while True:
        for edge_hour in (config.work_start, config.work_end):
            depart = (day * DAY + edge_hour * 3600.0 - commute
                      + rng.uniform(-600.0, 600.0))
            if depart <= sim.now:
                continue
            yield sim.sleep(depart - sim.now)
            link.set_up(False)
            venus.handle_disconnection()
            duration = commute * rng.uniform(0.8, 1.3)
            yield sim.sleep(duration)
            link.set_up(True)
            yield from venus.connect()
            stats["commutes"] += 1
            stats["disconnected_seconds"] += duration
        day += 1
        resume = day * DAY + config.work_start * 3600.0 - commute - 1_200.0
        if resume > sim.now:
            yield sim.sleep(resume - sim.now)


def _evict_volume(venus, rng):
    """Cache pressure drops one roamed-into volume wholesale."""
    extra_volids = sorted({
        entry.fid.volume for entry in venus.cache.iter_entries()
        if entry.path and entry.path.startswith("/coda/extra/")
        and not entry.dirty})
    if not extra_volids:
        return
    volid = rng.choice(extra_volids)
    for entry in venus.cache.entries_in_volume(volid):
        if not entry.dirty:
            venus.cache.remove(entry.fid)
    venus.cache.volume_info(volid).drop()


def _administrator(sim, config, server, volumes, rng):
    """Occasional updates to system volumes from outside the fleet."""
    counter = 0
    while True:
        rate = config.system_updates_per_day * len(volumes)
        yield sim.sleep(rng.expovariate(rate / DAY))
        counter += 1
        admin_update(server, volumes, rng, sim.now, ("admin", counter))


def admin_update(server, volumes, rng, now, tag):
    """One out-of-band administrator update at the server: a random
    file of a random volume gets content tagged ``tag``, breaking
    callbacks like any other update."""
    volume = rng.choice(volumes)
    fids = [fid for fid, vnode in volume.vnodes.items() if vnode.is_file()]
    if not fids:
        return
    fid = rng.choice(fids)
    vnode = volume.require(fid)
    vnode.content = SyntheticContent(vnode.length or 1024, tag=tag)
    volume.bump(vnode, now)
    server._break_callbacks("admin-client", fid)
