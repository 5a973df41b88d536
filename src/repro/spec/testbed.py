"""Testbed construction: the one-client world, population, warming.

The standard testbed mirrors the paper's: a DECpc 425SL laptop client
and a DECstation 5000/200 server "isolated on a separate network",
joined by one link of the profile under test.  :func:`build_testbed`
is how a spec gets one; :func:`make_testbed`, :func:`populate_volume`
and :func:`warm_cache` are the parts it (and the multi-client
families) build from.
"""

from dataclasses import dataclass

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.fs.content import SyntheticContent
from repro.fs.namespace import split_path
from repro.fs.objects import ObjectType, Vnode
from repro.net import Network
from repro.net.host import LAPTOP_1995, SERVER_1995
from repro.net.profiles import profile_by_name
from repro.server import CodaServer
from repro.sim import RandomStreams, Simulator
from repro.venus import Venus, VenusConfig
from repro.venus.cache import CacheEntry

CLIENT = "laptop"
SERVER = "server"


@dataclass
class Testbed:
    sim: object
    net: object
    link: object
    server: object
    venus: object
    obs: object = None
    streams: object = None

    def run(self, generator):
        """Run a generator as a process to completion; returns its value."""
        return self.sim.run(self.sim.process(generator))


def make_testbed(profile, venus_config=None, user=None, seed=0,
                 loss_rate=None, client_host=LAPTOP_1995,
                 server_host=SERVER_1995, observatory=None):
    """One client, one server, one link of the given profile.

    ``observatory`` optionally attaches a :class:`repro.obs.Observatory`
    to the simulator before any component is built, so every
    instrumentation site sees it.  Left as None, the simulator keeps its
    no-op observer and runs are byte-identical to uninstrumented ones.
    """
    sim = Simulator()
    if observatory is not None:
        observatory.install(sim)
    streams = RandomStreams(seed)
    sim.rand = streams
    # No network-level rng: links derive per-direction loss streams
    # ("link.loss::<src>-><dst>") from sim.rand, so the directions of a
    # link — and distinct links — draw independently.
    net = Network(sim)
    overrides = {}
    if loss_rate is not None:
        overrides["loss_rate"] = loss_rate
    link = net.add_link(CLIENT, SERVER, profile=profile, **overrides)
    server = CodaServer(sim, net, SERVER, server_host)
    venus = Venus(sim, net, CLIENT, SERVER, client_host,
                  config=venus_config, user=user)
    return Testbed(sim=sim, net=net, link=link, server=server, venus=venus,
                   obs=observatory, streams=streams)


def populate_volume(server, mount_prefix, tree, volume_name=None):
    """Create a volume and fill it with ``tree`` server-side.

    ``tree`` maps absolute paths (under ``mount_prefix``) to
    ``("dir", 0)`` or ``("file", size)``.  Intermediate directories are
    created as needed.  Returns the volume.
    """
    volume = server.create_volume(volume_name or mount_prefix.strip("/"),
                                  mount_prefix)
    prefix_parts = split_path(mount_prefix)

    def ensure(parts, kind, size):
        node = volume.root
        for depth, name in enumerate(parts):
            child_fid = node.children.get(name)
            last = depth == len(parts) - 1
            if child_fid is None:
                otype = (ObjectType.FILE if last and kind == "file"
                         else ObjectType.DIRECTORY)
                child = Vnode(volume.alloc_fid(), otype)
                if otype is ObjectType.FILE:
                    child.content = SyntheticContent(
                        size, tag=("init", "/".join(parts)))
                volume.add(child)
                node.children[name] = child.fid
                node = child
            else:
                node = volume.require(child_fid)
        return node

    for path in sorted(tree):
        kind, size = tree[path]
        parts = split_path(path)
        if parts[:len(prefix_parts)] == prefix_parts:
            parts = parts[len(prefix_parts):]
        if not parts:
            continue
        ensure(parts, kind, size)
    return volume


def warm_cache(venus, server, volume, with_stamps=True):
    """Install the volume's contents in the client cache.

    Models a hoard walk completed while strongly connected before the
    experiment begins (the paper warms state before measuring): every
    object is cached with data and a callback, and — when
    ``with_stamps`` — the volume version stamp is cached with a volume
    callback, as at the end of a real walk.
    """
    now = venus.sim.now
    # Recover each object's path for display/hoard logic.
    prefix = "/" + "/".join(server.registry.mount_of(volume))
    paths = {volume.root_fid: prefix}
    pending = [volume.root]
    while pending:
        node = pending.pop()
        if node.children:
            for name, child_fid in node.children.items():
                paths[child_fid] = paths[node.fid] + "/" + name
                child = volume.get(child_fid)
                if child is not None and child.is_dir():
                    pending.append(child)
    for fid, vnode in volume.vnodes.items():
        entry = CacheEntry(fid, vnode.otype, path=paths.get(fid))
        entry.version = vnode.version
        entry.length = vnode.length
        entry.mtime = vnode.mtime
        if vnode.otype is ObjectType.DIRECTORY:
            entry.children = dict(vnode.children)
        elif vnode.otype is ObjectType.SYMLINK:
            entry.target = vnode.target
        else:
            entry.content = vnode.content
        entry.callback = True
        venus.cache.add(entry, now)
        server.callbacks.add_object(venus.node, fid)
    venus.learn_mounts(server.registry)
    info = venus.cache.volume_info(volume.volid)
    if with_stamps:
        info.stamp = volume.stamp
        info.callback = True
        server.callbacks.add_volume(venus.node, volume.volid)


def probe_schedule(sim, schedule_log):
    """Wrap ``sim.step`` to log each dispatch's scheduler key.

    ``peek_entry`` is the read-only view of the next dispatch: the
    determinism regression tests need the raw
    ``(time, priority, seq)`` order.
    """
    original_step = sim.step

    def probed_step():
        schedule_log.append(sim.peek_entry()[:3])
        original_step()

    sim.step = probed_step


def build_testbed(spec, observatory=None, schedule_log=None, checker=None,
                  seed=0, plan=None):
    """The spec's one-client testbed, faults armed, session not yet run.

    ``plan`` overrides the spec's ``network.faults`` rows with an
    already-built :class:`~repro.faults.plan.FaultPlan` (tests build
    bespoke plans this way).  ``seed``
    is the *master* testbed seed — callers go through
    :func:`repro.spec.compile.run_spec` /
    :func:`repro.spec.seeds.master_seed` to derive it from a CLI seed.
    """
    overrides = spec.venus_dict()
    if spec.clients.cache_capacity is not None:
        overrides.setdefault("cache_capacity", spec.clients.cache_capacity)
    config = VenusConfig(**overrides) if overrides else None
    testbed = make_testbed(profile_by_name(spec.network.profile),
                           venus_config=config, seed=seed,
                           loss_rate=spec.network.loss_rate,
                           observatory=observatory)
    if schedule_log is not None:
        probe_schedule(testbed.sim, schedule_log)
    if checker is not None:
        checker.attach(testbed)
    for volume_spec in spec.volumes:
        volume = populate_volume(testbed.server, volume_spec.mount,
                                 volume_spec.tree_dict())
        if volume_spec.warm:
            warm_cache(testbed.venus, testbed.server, volume)
    for path, priority, children in spec.clients.hoard:
        testbed.venus.hoard(path, priority, children=children)
    for outage in spec.network.outages:
        testbed.link.outage(after=outage.after, duration=outage.duration)
    if plan is None and spec.network.faults:
        plan = FaultPlan.from_dicts(spec.network.fault_rows())
    if plan is not None:
        testbed.faults = FaultInjector(testbed, plan)
        testbed.faults.start()
    return testbed
