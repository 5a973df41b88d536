"""Measured workload families the spec DSL opens up.

Three families the original evaluation never ran, each exercising a
different leg of the paper's weak-connectivity machinery:

* **commuter** — a fleet living a diurnal day-cycle: laptops commute
  off the network every morning and evening, desktops hum along with
  rare outages, and all activity follows office hours.  Reintegration
  and reconnection validation happen at the day boundaries instead of
  Poisson-random times (Figure 9's phenomena under a periodic rhythm).
  A fleet, it runs beside the Figure 9 fleet in :mod:`repro.spec.fleet`;
  the testbed families below live here.
* **conflict-storm** — many writers sharing one volume, repeatedly
  writing overlapping files while disconnected.  Reintegration detects
  the update/update conflicts (section 2.2, after Kumar), parks them,
  and the writers repair deterministically — half keep "mine", half
  keep "theirs".
* **doc-archive** — a Stanski-style document-archiving client: hoard a
  couple of prefetch containers while strongly connected, walk, then
  roam onto a weak link and read documents in and out of the hoarded
  set, driving transparent fetches, patience-denied misses (section
  4.4.1, Figure 5), and trickle-reintegrated annotations.

A fourth, **replay**, is the paper's own central experiment: one
trace segment replayed through a live client (section 6.2.1, Figures
12-14).

Every stochastic draw comes from a named stream of the run's master
seed, so each family is byte-identical across runs — pinned by golden
timeline digests like every other scenario.
"""

from dataclasses import asdict, dataclass

from repro.analysis.invariants import attach_client_checkers
from repro.faults.plan import FaultPlan, LinkDegrade
from repro.fs.content import SyntheticContent
from repro.net import WAVELAN, Network
from repro.net.host import LAPTOP_1995, SERVER_1995
from repro.server import CodaServer
from repro.sim import RandomStreams, Simulator
from repro.spec.testbed import (
    Testbed,
    build_testbed,
    populate_volume,
    probe_schedule,
    warm_cache,
)
from repro.trace.replay import TraceReplayer
from repro.trace.segments import segment_by_name
from repro.venus import Venus, VenusConfig


# ----------------------------------------------------------------------
# conflict-storm


@dataclass
class ConflictStormConfig:
    """Many writers, one volume, overlapping disconnected writes."""

    writers: int = 6
    files: int = 8
    file_size: int = 12_000
    rounds: int = 2
    round_minutes: float = 30.0        # disconnected window per round
    writes_per_round: int = 3
    keep_mine_every: int = 2           # every k-th conflict keeps "mine"
    drain_seconds: float = 240.0       # reconnection settle time
    seed: int = 0


_STORM_INT_FIELDS = ("writers", "files", "file_size", "rounds",
                     "writes_per_round", "keep_mine_every")


def _storm_config(spec):
    params = spec.params_dict()
    for name in _STORM_INT_FIELDS:
        if name in params:
            params[name] = int(params[name])
    return ConflictStormConfig(**params)


def run_conflict_storm(spec, master, observatory=None, schedule_log=None,
                       checker=None, checkers=None):
    """Run the conflict-storm family; returns (testbed, summary).

    The returned testbed is writer 0's facade (sim, link, venus) so
    callers can fingerprint a representative client; the summary
    carries the storm-wide conflict accounting.
    """
    config = _storm_config(spec)
    config.seed = master
    sim = Simulator()
    if observatory is not None:
        observatory.install(sim)
    if schedule_log is not None:
        probe_schedule(sim, schedule_log)
    streams = RandomStreams(config.seed)
    sim.rand = streams
    net = Network(sim, rng=streams.stream("net"))
    server = CodaServer(sim, net, "server", SERVER_1995)

    mount = "/coda/project/storm"
    tree = {mount + "/doc": ("dir", 0)}
    for index in range(config.files):
        tree["%s/doc/f%02d" % (mount, index)] = ("file", config.file_size)
    volume = populate_volume(server, mount, tree)

    writers = []
    facades = []
    for index in range(config.writers):
        name = "writer%02d" % index
        link = net.add_link(name, "server", profile=WAVELAN)
        venus = Venus(sim, net, name, "server", LAPTOP_1995,
                      config=VenusConfig(aging_window=30.0,
                                         daemon_period=5.0,
                                         probe_interval=30.0))
        warm_cache(venus, server, volume)
        writers.append((name, venus, link))
        facades.append(Testbed(sim=sim, net=net, link=link, server=server,
                               venus=venus, obs=observatory,
                               streams=streams))

    resolutions = {"mine": 0, "theirs": 0}
    for index, (name, venus, link) in enumerate(writers):
        sim.process(_storm_writer(sim, config, index, venus, link, mount,
                                  streams.stream("storm::" + name),
                                  resolutions),
                    name="storm-%s" % name)

    attached = []
    if checker is not None:
        checker.attach(facades[0])
        attached = attach_client_checkers(
            checkers, facades[1:], sample=config.writers)
    cycle = (config.round_minutes * 60.0 + config.drain_seconds + 120.0)
    sim.run(until=config.rounds * cycle + 600.0)
    for active in attached:
        active.check_all()

    conflicts = []
    for _name, venus, _link in writers:
        conflicts.extend(venus.conflicts.all())
    summary = {
        "end_time": sim.now,
        "writers": config.writers,
        "rounds": config.rounds,
        "conflicts_detected": len(conflicts),
        "conflicts_resolved_mine": resolutions["mine"],
        "conflicts_resolved_theirs": resolutions["theirs"],
        "conflicts_pending": sum(
            1 for conflict in conflicts if conflict.resolved is None),
        "cml_reintegrated": sum(
            venus.cml.stats.reintegrated_records
            for _name, venus, _link in writers),
        "reintegration_duplicates": server.reintegrator.duplicates_skipped,
        "server_versions": sum(
            vnode.version for vnode in volume.vnodes.values()),
    }
    return facades[0], summary


def _storm_writer(sim, config, index, venus, link, mount, rng,
                  resolutions):
    """One writer's storm: disconnect, collide, reconnect, repair."""
    yield sim.sleep(10.0 * index + rng.uniform(0.0, 20.0))
    yield from venus.connect()
    for round_no in range(config.rounds):
        yield sim.sleep(rng.uniform(10.0, 60.0))
        link.set_up(False)
        venus.handle_disconnection()
        for write_no in range(config.writes_per_round):
            target = rng.randrange(config.files)
            path = "%s/doc/f%02d" % (mount, target)
            content = SyntheticContent(
                config.file_size + 100 * index + write_no,
                tag=("storm", index, round_no, write_no))
            try:
                yield from venus.write_file(path, content)
            except Exception:
                pass
            yield sim.sleep(rng.uniform(5.0, 30.0))
        remaining = (config.round_minutes * 60.0
                     * rng.uniform(0.8, 1.2))
        yield sim.sleep(remaining)
        link.set_up(True)
        yield from venus.connect()
        yield sim.sleep(config.drain_seconds + rng.uniform(0.0, 30.0))
        for conflict in venus.list_conflicts():
            if conflict.resolved is not None:
                continue
            keep = ("mine" if conflict.ident % config.keep_mine_every == 0
                    else "theirs")
            try:
                yield from venus.repair(conflict, keep)
            except Exception:
                continue
            resolutions[keep] += 1


# ----------------------------------------------------------------------
# doc-archive


@dataclass
class DocArchiveConfig:
    """A document-archiving client on a link that turns weak."""

    containers: int = 6
    docs_per_container: int = 8
    doc_size: int = 24_000
    hoarded_containers: int = 2
    hoard_priority: int = 600
    reads: int = 60
    think_seconds: float = 40.0
    annotate_every: int = 5            # every k-th read writes a note
    note_size: int = 2_000
    locality: float = 0.7              # fraction of reads in hoarded set
    commute_at: float = 600.0          # strong office phase ends here
    weak_bps: float = 9_600.0          # modem-class bandwidth after it
    weak_minutes: float = 90.0
    seed: int = 0


def _archive_config(spec):
    params = spec.params_dict()
    config = DocArchiveConfig(**params)
    config.containers = int(config.containers)
    config.docs_per_container = int(config.docs_per_container)
    config.doc_size = int(config.doc_size)
    config.hoarded_containers = min(int(config.hoarded_containers),
                                    config.containers)
    config.hoard_priority = int(config.hoard_priority)
    config.reads = int(config.reads)
    config.annotate_every = max(1, int(config.annotate_every))
    config.note_size = int(config.note_size)
    return config


def run_doc_archive(spec, master, observatory=None, schedule_log=None,
                    checker=None, checkers=None):
    """Run the doc-archive family; returns (testbed, summary).

    The spec's own testbed (the catalogue entry's WaveLan link and
    ``venus`` overrides) with the commute to a weak link appended to
    its fault plan.
    """
    config = _archive_config(spec)
    config.seed = master
    mount = "/coda/archive"
    commute = LinkDegrade(at=config.commute_at,
                          duration=config.weak_minutes * 60.0,
                          bandwidth_bps=config.weak_bps)
    plan = FaultPlan((*FaultPlan.from_dicts(spec.network.fault_rows()),
                      commute))
    testbed = build_testbed(spec, observatory=observatory,
                            schedule_log=schedule_log, checker=checker,
                            seed=master, plan=plan)
    sim = testbed.sim

    # Container tree: doc sizes drawn from a named stream so the whole
    # archive — including which documents are small enough to fetch
    # transparently over the weak link — is a pure function of the
    # master seed.
    tree_rng = testbed.streams.stream("doc-archive::tree")
    tree = {}
    for c_index in range(config.containers):
        container = "%s/c%02d" % (mount, c_index)
        tree[container] = ("dir", 0)
        for d_index in range(config.docs_per_container):
            if tree_rng.random() < 0.3:
                size = tree_rng.randrange(600, 2_400)
            else:
                size = max(2_000, int(tree_rng.expovariate(
                    1.0 / config.doc_size)))
            tree["%s/d%02d" % (container, d_index)] = ("file", size)
    populate_volume(testbed.server, mount, tree)
    # No cache warming: hoard walks do the prefetching, that is the
    # family's point.  The client still needs the mount map.
    testbed.venus.learn_mounts(testbed.server.registry)

    session_rng = testbed.streams.stream("doc-archive::session")

    def session():
        venus = testbed.venus
        yield from venus.connect()
        for c_index in range(config.hoarded_containers):
            venus.hoard("%s/c%02d" % (mount, c_index),
                        config.hoard_priority, children=True)
        yield from venus.hoard_walk()
        notes = 0
        for read_no in range(config.reads):
            yield sim.sleep(session_rng.expovariate(
                1.0 / config.think_seconds))
            if (session_rng.random() < config.locality
                    and config.hoarded_containers):
                c_index = session_rng.randrange(config.hoarded_containers)
            else:
                c_index = session_rng.randrange(config.containers)
            d_index = session_rng.randrange(config.docs_per_container)
            path = "%s/c%02d/d%02d" % (mount, c_index, d_index)
            try:
                yield from venus.read_file(path)
            except Exception:
                continue
            if (read_no + 1) % config.annotate_every == 0:
                notes += 1
                yield from venus.write_file(
                    "%s/c%02d/note%03d" % (mount, c_index, notes),
                    SyntheticContent(config.note_size,
                                     tag=("note", notes)))
        yield sim.sleep(600.0)

    sim.run(sim.process(session()))
    if checker is not None:
        checker.check_all()

    venus = testbed.venus
    stats = venus.stats
    summary = {
        "end_time": sim.now,
        "containers": config.containers,
        "hoarded_containers": config.hoarded_containers,
        "reads": config.reads,
        "fetches": stats.fetches,
        "fetch_bytes": stats.fetch_bytes,
        "hoard_walks": stats.hoard_walks,
        "misses_transparent": stats.misses_transparent,
        "misses_denied": stats.misses_denied,
        "misses_disconnected": stats.misses_disconnected,
        "miss_log_records": venus.misses.total_recorded,
        "cml_reintegrated": venus.cml.stats.reintegrated_records,
        "bytes_shipped": venus.trickle.stats.bytes_shipped,
    }
    return testbed, summary


# ----------------------------------------------------------------------
# replay

@dataclass
class ReplayConfig:
    """One trace segment replayed through a live Venus."""

    segment: str = "messiaen"
    think_threshold: float = 1.0       # lambda: shorter gaps are dropped
    warm_seconds: float = 600.0        # trace time before measuring
    records: int = None                # replay only this leading prefix


def run_replay(spec, master, observatory=None, schedule_log=None,
               checker=None, checkers=None):
    """Run the replay family; returns (testbed, summary).

    The spec's own testbed (network, aging window, write-disconnected
    start, log optimizations: its ``network`` and ``venus`` fields)
    with the segment's tree warmed into the cache; the summary is the
    :class:`~repro.trace.replay.ReplayReport` plus the trickle chunks.
    """
    config = ReplayConfig(**spec.params_dict())
    segment = segment_by_name(config.segment)
    if config.records is not None:
        segment.records = segment.records[:int(config.records)]
    testbed = build_testbed(spec, observatory=observatory,
                            schedule_log=schedule_log, checker=checker,
                            seed=master)
    volume = populate_volume(testbed.server, "/coda/usr/trace",
                             segment.tree)
    warm_cache(testbed.venus, testbed.server, volume)
    replayer = TraceReplayer(testbed.venus,
                             think_threshold=config.think_threshold,
                             warm_seconds=config.warm_seconds)

    def session():
        if not (yield from testbed.venus.connect()):
            raise RuntimeError("client failed to reach the server")
        return (yield from replayer.run(segment))

    report = testbed.run(session())
    return testbed, dict(
        asdict(report), end_time=testbed.sim.now,
        chunks_committed=testbed.venus.trickle.stats.chunks_committed)


#: The spec-level runner of each non-script testbed family.
TESTBED_RUNNERS = {"conflict-storm": run_conflict_storm,
                   "doc-archive": run_doc_archive,
                   "replay": run_replay}
