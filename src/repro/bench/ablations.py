"""Ablation studies of the design choices the paper argues for.

These go beyond the paper's tables: each sweeps one design parameter
the paper fixes after qualitative argument, and measures the quantity
the argument is about.

* **Chunk time budget** (section 4.3.5): the 30-second budget bounds
  how long a chunk can monopolize a slow link.  We measure foreground
  cache-miss latency on a modem while trickle reintegration runs, for
  several budgets (and for whole-log chunks, the no-chunking strawman).
* **Aging window at replay time** (section 4.3.4): A trades
  reintegration data volume against propagation promptness; we sweep A
  on one segment and report shipped bytes and end-of-run CML.
* **Log optimizations on/off** (section 4.3.3): how much wire traffic
  the optimizer saves during a weakly-connected session.
* **Volume callback false sharing** (section 4.2.2): validation
  success rates as cross-client updates are spread over fewer, larger
  volumes — the "page size" effect the paper warns about.
* **Header compression** (section 4.1): SFTP goodput on a modem with
  and without VJ-style compression, the option the paper left out.
* **Cost-aware adaptation** (section 8's future work): one session on
  a free, a per-MB and a per-minute tariff.
* **Shared keepalives** (section 4.1): idle-link keepalive traffic of
  the original per-layer streams against the shared liveness fix.

Each is an :class:`Ablation` run by :func:`sweep` and printed by
:func:`render`; the aging-window and log-optimization cells sweep the
``replay`` catalogue spec's ``venus`` fields.
"""

from dataclasses import dataclass, replace

from repro.bench.results import Table
from repro.core.cost import CELLULAR, FREE, LONG_DISTANCE
from repro.fs.content import SyntheticContent
from repro.net import ETHERNET, MODEM
from repro.sim.rand import derive_rng
from repro.spec.catalog import get
from repro.spec.compile import run_spec
from repro.spec.testbed import make_testbed, populate_volume, warm_cache
from repro.venus import VenusConfig


@dataclass(frozen=True)
class Ablation:
    """One design-choice sweep, as data."""

    title: str
    axis: str          # the swept column's header
    values: tuple      # (label, value) pairs: one table row each
    cell: object       # (value, **knobs) -> dict of facts
    columns: tuple     # (header, fact key, %-format) per measured column


def sweep(ablation, values=None, **knobs):
    """Run ``ablation``'s cell once per swept value (``values``
    overrides its pairs, ``knobs`` go to the cell); returns one facts
    dict per row, each with its ``label``."""
    return [dict(ablation.cell(value, **knobs), label=label)
            for label, value in values or ablation.values]


def render(ablation, rows):
    """The :class:`Table` of ``rows`` as :func:`sweep` returned them."""
    table = Table(ablation.title, [ablation.axis] + [
        header for header, _key, _fmt in ablation.columns])
    for row in rows:
        table.add(row["label"], *(fmt % row[key]
                                  for _header, key, fmt in ablation.columns))
    return table


def _replay_cell(segment, **venus):
    """The ``replay`` spec on ``segment`` with no warming period and
    ``venus`` overrides; its summary, with the byte counts in KB too."""
    base = get("replay")
    spec = replace(base.with_params(segment=segment, warm_seconds=0.0),
                   venus=dict(base.venus_dict(), **venus))
    facts = run_spec(spec).summary
    for name in ("shipped", "end_cml", "optimized"):
        facts[name + "_kb"] = facts[name + "_bytes"] / 1024.0
    return facts


#: The data-volume columns of a replay cell's table.
_REPLAY_KB = (("Shipped (KB)", "shipped_kb", "%.0f"),
              ("End CML (KB)", "end_cml_kb", "%.0f"),
              ("Optimized (KB)", "optimized_kb", "%.0f"))


# ----------------------------------------------------------------------
# Chunk-size ablation

def _chunk_cell(budget, backlog_files=6, file_kb=120, miss_kb=40):
    """Foreground miss latency on a modem during reintegration.

    ``None`` means whole-log chunks (no adaptive sizing).  A backlog of
    aged updates exists when a foreground cache miss arrives; with
    small chunks the trickle daemon yields the link quickly, with huge
    chunks the miss waits behind megabytes of reintegration data.
    """
    config = VenusConfig(aging_window=0.0, force_write_disconnected=True,
                         daemon_period=1.0)
    if budget is None:
        config.whole_chunk_mode = True
    else:
        config.chunk_seconds = budget
    testbed = make_testbed(MODEM, venus_config=config)
    tree = {"/coda/usr/w/d": ("dir", 0),
            "/coda/usr/w/d/miss.bin": ("file", miss_kb * 1024)}
    volume = populate_volume(testbed.server, "/coda/usr/w", tree)
    warm_cache(testbed.venus, testbed.server, volume)
    venus = testbed.venus
    # The miss target must not be cached.
    folder = volume.require(volume.root.children["d"])
    venus.cache.remove(folder.children["miss.bin"])

    def scenario():
        yield from venus.connect()
        venus.hoard("/coda/usr/w/d/miss.bin", 900)
        # Build the backlog of aged updates.
        for index in range(backlog_files):
            yield from venus.write_file(
                "/coda/usr/w/d/out%02d" % index,
                SyntheticContent(file_kb * 1024))
        # Let reintegration get going, then take a foreground miss.
        yield venus.sim.timeout(30.0)
        start = venus.sim.now
        yield from venus.read_file("/coda/usr/w/d/miss.bin")
        miss_latency = venus.sim.now - start
        # How long until the whole backlog is gone?
        while len(venus.cml):
            yield venus.sim.timeout(5.0)
        return {"miss_latency": miss_latency,
                "drain_seconds": venus.sim.now}

    return testbed.run(scenario())


CHUNK = Ablation(
    title="Ablation (section 4.3.5): chunk time budget vs foreground miss "
          "latency at 9.6 Kb/s",
    axis="Chunk budget",
    values=(("5s", 5.0), ("30s", 30.0), ("300s", 300.0),
            ("whole log", None)),
    cell=_chunk_cell,
    columns=(("Foreground miss latency (s)", "miss_latency", "%.1f"),
             ("Backlog drained by (s)", "drain_seconds", "%.0f")))


# ----------------------------------------------------------------------
# Aging window at replay time

AGING = Ablation(
    title="Ablation (section 4.3.4): aging window vs traffic, holst "
          "segment on a 9.6 Kb/s modem",
    axis="A (s)",
    values=(("0", 0.0), ("60", 60.0), ("300", 300.0), ("600", 600.0),
            ("1800", 1800.0)),
    cell=lambda window, segment="holst": _replay_cell(
        segment, aging_window=window),
    columns=_REPLAY_KB + (("Elapsed (s)", "elapsed", "%.0f"),))


# ----------------------------------------------------------------------
# Log optimizations on/off

LOGOPT = Ablation(
    title="Ablation (section 4.3.3): log optimizations on/off, concord "
          "segment at 9.6 Kb/s",
    axis="Optimizations",
    values=(("on", True), ("off", False)),
    cell=lambda enabled, segment="concord": _replay_cell(
        segment, aging_window=600.0, log_optimizations=enabled),
    columns=_REPLAY_KB)


# ----------------------------------------------------------------------
# Volume granularity / false sharing

def _false_sharing_cell(n_volumes, total_files=160, updates=8, seed=3):
    """The same cross-client update load over ``n_volumes`` volumes.

    With one giant volume every stamp is invalidated by any update
    (false sharing); with many volumes most stamps survive.
    """
    rng = derive_rng("false-sharing", n_volumes, seed)
    testbed = make_testbed(ETHERNET,
                           venus_config=VenusConfig(start_daemons=False))
    per_volume = total_files // n_volumes
    volumes = []
    for v in range(n_volumes):
        mount = "/coda/fs/v%02d" % v
        tree = {mount + "/d": ("dir", 0)}
        for i in range(per_volume):
            tree["%s/d/f%03d" % (mount, i)] = ("file", 4096)
        volume = populate_volume(testbed.server, mount, tree)
        warm_cache(testbed.venus, testbed.server, volume)
        volumes.append(volume)
    venus = testbed.venus

    def scenario():
        yield from venus.connect()
        venus.handle_disconnection()
        # Another client updates a few files while we are away.
        for _ in range(updates):
            volume = rng.choice(volumes)
            fids = [fid for fid, vn in volume.vnodes.items()
                    if vn.is_file()]
            fid = rng.choice(fids)
            vnode = volume.require(fid)
            vnode.content = SyntheticContent(4096)
            volume.bump(vnode, venus.sim.now)
            testbed.server.callbacks.drop_client(venus.node)
        yield from venus.validator.validate_all()

    testbed.run(scenario())
    stats = venus.validator.stats
    return {"success_fraction": stats.success_fraction,
            "success_pct": stats.success_fraction * 100,
            "objects_saved": stats.objects_saved}


FALSE_SHARING = Ablation(
    title="Ablation (section 4.2.2): volume granularity vs validation "
          "success (same update load, fewer/larger volumes)",
    axis="Volumes",
    values=(("1", 1), ("2", 2), ("4", 4), ("8", 8), ("16", 16)),
    cell=_false_sharing_cell,
    columns=(("Stamp validations successful", "success_pct", "%.0f%%"),
             ("Objects saved", "objects_saved", "%d")))


# ----------------------------------------------------------------------
# Header compression (section 4.1's deliberately-unimplemented option)

def _compression_cell(saving, transfer_bytes=200_000):
    """SFTP goodput on a modem saving ``saving`` header bytes a packet.

    The paper lists header compression among possible transport
    improvements but "deliberately tried to minimize efforts at the
    transport level"; this ablation quantifies what was left on the
    table: a few percent on a modem, nothing anywhere else.
    """
    from repro.net import Network
    from repro.net.host import LAPTOP_1995, SERVER_1995
    from repro.rpc2 import Rpc2Endpoint
    from repro.sim import RandomStreams, Simulator
    sim = Simulator()
    net = Network(sim, rng=RandomStreams(0).stream("net"))
    net.add_link("laptop", "server", profile=MODEM, header_savings=saving)
    client = Rpc2Endpoint(sim, net, "laptop", 2432, LAPTOP_1995,
                          default_bps=MODEM.bandwidth_bps)
    server = Rpc2Endpoint(sim, net, "server", 2432, SERVER_1995,
                          default_bps=MODEM.bandwidth_bps)
    server.register("Fetch", lambda ctx, args: (None, args["n"]))
    conn = client.connect("server")

    def transfer():
        start = sim.now
        yield conn.call("Fetch", {"n": transfer_bytes})
        return sim.now - start

    elapsed = sim.run(sim.process(transfer()))
    return {"goodput_kbps": transfer_bytes * 8.0 / elapsed / 1000.0}


COMPRESSION = Ablation(
    title="Ablation (section 4.1): VJ-style header compression on a "
          "9.6 Kb/s modem",
    axis="Header bytes saved/packet",
    values=(("0", 0), ("23", 23)),
    cell=_compression_cell,
    columns=(("SFTP goodput (Kb/s)", "goodput_kbps", "%.2f"),))


# ----------------------------------------------------------------------
# Cost-aware adaptation (section 8's future work)

def _cost_cell(tariff):
    """The same weakly-connected session on ``tariff``.

    Free: the stock aging window.  Cellular (per-MB): the stretched
    window lets more overwrites cancel, so fewer megabytes are paid
    for.  Long distance (per-minute): everything drains promptly so
    the call can end.
    """
    config = VenusConfig(aging_window=300.0, daemon_period=5.0,
                         tariff=tariff)
    testbed = make_testbed(MODEM, venus_config=config)
    volume = populate_volume(testbed.server, "/coda/usr/c",
                             {"/coda/usr/c/d": ("dir", 0)})
    warm_cache(testbed.venus, testbed.server, volume)
    venus = testbed.venus

    def session():
        yield from venus.connect()
        # Overwrite the same file every two minutes for a while:
        # a longer aging window cancels more of these stores.
        for _ in range(8):
            yield from venus.write_file(
                "/coda/usr/c/d/draft", SyntheticContent(25_000))
            yield venus.sim.timeout(120.0)
        yield venus.sim.timeout(600.0)

    testbed.run(session())
    return {"shipped_kb": venus.trickle.stats.bytes_shipped / 1024.0,
            "optimized_kb": venus.cml.stats.optimized_bytes / 1024.0,
            "cml_left_kb": venus.cml.size_bytes / 1024.0,
            "money_spent": venus.network_cost()}


COST = Ablation(
    title="Extension (section 8): cost-aware adaptation of the same "
          "session on three tariffs",
    axis="Tariff",
    values=tuple((tariff.name, tariff)
                 for tariff in (FREE, CELLULAR, LONG_DISTANCE)),
    cell=_cost_cell,
    columns=(("Shipped (KB)", "shipped_kb", "%.0f"),
             ("Optimized (KB)", "optimized_kb", "%.0f"),
             ("CML left (KB)", "cml_left_kb", "%.0f"),
             ("Money spent", "money_spent", "%.2f")))


# ----------------------------------------------------------------------
# Shared keepalives (the section 4.1 fix itself)

def _keepalive_cell(duplicated, idle_hours=1.0):
    """Idle-link keepalive traffic on a modem, with the per-layer
    streams ``duplicated`` or shared.

    The original code had RPC2, SFTP, and Venus each running their own
    keepalive stream ("this isolation ... generated duplicate keepalive
    traffic").  The fix shares one pool of liveness information.
    """
    # Suppress periodic bandwidth probes: this ablation isolates
    # keepalive traffic.
    config = VenusConfig(keepalive_interval=60.0,
                         bandwidth_probe_interval=10 * 3600.0)
    testbed = make_testbed(MODEM, venus_config=config)
    volume = populate_volume(testbed.server, "/coda/usr/k",
                             {"/coda/usr/k/d": ("dir", 0)})
    warm_cache(testbed.venus, testbed.server, volume)
    venus = testbed.venus
    sim = testbed.sim
    testbed.run(venus.connect())
    if duplicated:
        # The pre-fix layering: two extra independent keepalive
        # streams (RPC2's and SFTP's), each blind to the other's
        # traffic and to Venus's.
        def layer_keepalive(period):
            while True:
                yield sim.sleep(period)
                try:
                    yield venus.endpoint.ping(venus.server_node)
                except Exception:
                    return

        sim.process(layer_keepalive(30.0), name="rpc2-keepalive")
        sim.process(layer_keepalive(45.0), name="sftp-keepalive")
    start_packets = venus.endpoint.packets_out
    start_bytes = venus.endpoint.bytes_out
    sim.run(until=sim.now + idle_hours * 3600.0)
    return {"packets_per_hour": int((venus.endpoint.packets_out
                                     - start_packets) / idle_hours),
            "bytes_per_hour": int((venus.endpoint.bytes_out
                                   - start_bytes) / idle_hours)}


KEEPALIVE = Ablation(
    title="Ablation (section 4.1): idle keepalive traffic, original "
          "layering vs shared liveness (9.6 Kb/s modem)",
    axis="Scheme",
    values=(("shared", False), ("duplicated", True)),
    cell=_keepalive_cell,
    columns=(("Packets/hour", "packets_per_hour", "%d"),
             ("Bytes/hour", "bytes_per_hour", "%d")))


#: Every ablation, in ``repro figure ablations`` order.
ABLATIONS = (CHUNK, AGING, LOGOPT, FALSE_SHARING, COMPRESSION, COST,
             KEEPALIVE)
