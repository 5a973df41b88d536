"""Ablation studies of the design choices the paper argues for.

These go beyond the paper's tables: each sweeps one design parameter
the paper fixes after qualitative argument — the chunk time budget
(section 4.3.5), the aging window at replay time (4.3.4), log
optimizations on/off (4.3.3), volume granularity and false sharing
(4.2.2), header compression (4.1), cost-aware adaptation (section 8's
future work) and shared keepalives (4.1's fix) — and measures the
quantity the argument is about.

Each is an :class:`Ablation` with a full and an ``@fast`` sweep, run
by :func:`sweep` and printed by :func:`render`, and each cell is a
spec.  The aging-window and log-optimization cells sweep the
``replay`` catalogue spec's ``venus`` fields; chunk budget and cost
are script specs timed by their step ends; false sharing and
keepalive run their own session on a spec's testbed; header
compression is Figure 1's SFTP trial.
"""

from dataclasses import dataclass, field, replace

from repro.bench.results import Table
from repro.bench.transport import _sftp_trial
from repro.core.cost import TARIFFS
from repro.fs.content import SyntheticContent
from repro.net import MODEM
from repro.sim.rand import derive_rng
from repro.spec.catalog import get
from repro.spec.compile import run_spec
from repro.spec.model import OpStep, ScenarioSpec, VolumeSpec
from repro.spec.testbed import build_testbed


@dataclass(frozen=True)
class Ablation:
    """One design-choice sweep, as data."""

    name: str          # its key in the figure's facts
    title: str
    axis: str          # the swept column's header
    values: tuple      # (label, value) pairs: one table row each
    cell: object       # (value, **knobs) -> dict of facts
    columns: tuple     # (header, fact key, %-format) per measured column
    # The @fast sweep: (values, () for all of them; the cell's knobs).
    fast: tuple = field(default=((), {}), hash=False)


def sweep(ablation, fast=False):
    """Run ``ablation``'s cell once per swept value of its full (or
    fast) sweep; returns ``{label: facts}``, each row's column facts."""
    values, knobs = ablation.fast if fast else ((), {})
    rows = {}
    for label, value in values or ablation.values:
        cell = ablation.cell(value, **knobs)
        rows[label] = {key: cell[key] for _header, key, _fmt
                       in ablation.columns}
    return rows


def render(ablation, rows):
    """The :class:`Table` of ``rows`` as :func:`sweep` returned them."""
    table = Table(ablation.title, [ablation.axis] + [
        header for header, _key, _fmt in ablation.columns])
    for label, _value in ablation.values:
        if label in rows:
            table.add(label, *(fmt % rows[label][key]
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


def _spec(name, venus, volumes, script=(), profile="Modem"):
    """The one-client testbed spec of a cell (canonical seed)."""
    return ScenarioSpec(name=name, kind="testbed", family="script",
                        seed_kind="obs", venus=venus,
                        network={"profile": profile}, volumes=volumes,
                        workload={"script": script})


def _dir_volume(mount):
    """A volume holding one empty directory, ``d``."""
    return VolumeSpec(mount, [(mount + "/d", "dir", 0)])


# ----------------------------------------------------------------------
# Chunk-size ablation

def _chunk_cell(budget, backlog_files=6, file_kb=120, miss_kb=40):
    """Foreground miss latency on a modem during reintegration.

    ``None`` means whole-log chunks (no adaptive sizing).  A backlog of
    aged updates exists when a foreground cache miss arrives; with
    small chunks the trickle daemon yields the link quickly, with huge
    chunks the miss waits behind megabytes of reintegration data.
    """
    venus = {"aging_window": 0.0, "force_write_disconnected": True,
             "daemon_period": 1.0}
    if budget is None:
        venus["whole_chunk_mode"] = True
    else:
        venus["chunk_seconds"] = budget
    miss = "/coda/usr/w/d/miss.bin"
    # The miss target must not be cached.  Build the backlog of aged
    # updates, let reintegration get going, take a foreground miss,
    # then wait for the whole backlog to go.
    ends = run_spec(_spec(
        "chunk-budget", venus,
        [VolumeSpec("/coda/usr/w", [("/coda/usr/w/d", "dir", 0),
                                    (miss, "file", miss_kb * 1024)])],
        [OpStep("evict", path=miss), OpStep("connect"),
         OpStep("hoard", path=miss, priority=900),
         *(OpStep("write", path="/coda/usr/w/d/out%02d" % index,
                  size=file_kb * 1024) for index in range(backlog_files)),
         OpStep("sleep", seconds=30.0), OpStep("read", path=miss),
         OpStep("drain", seconds=5.0)])).step_ends
    return {"miss_latency": ends[-2] - ends[-3], "drain_seconds": ends[-1]}


CHUNK = Ablation(
    name="chunk",
    title="Ablation (section 4.3.5): chunk time budget vs foreground miss "
          "latency at 9.6 Kb/s",
    axis="Chunk budget",
    values=(("5s", 5.0), ("30s", 30.0), ("300s", 300.0),
            ("whole log", None)),
    cell=_chunk_cell,
    columns=(("Foreground miss latency (s)", "miss_latency", "%.1f"),
             ("Backlog drained by (s)", "drain_seconds", "%.0f")),
    fast=((("30s", 30.0), ("whole log", None)), {"backlog_files": 3}))


# ----------------------------------------------------------------------
# Aging window at replay time

AGING = Ablation(
    name="aging",
    title="Ablation (section 4.3.4): aging window vs traffic, holst "
          "segment on a 9.6 Kb/s modem",
    axis="A (s)",
    values=(("0", 0.0), ("60", 60.0), ("300", 300.0), ("600", 600.0),
            ("1800", 1800.0)),
    cell=lambda window, segment="holst": _replay_cell(
        segment, aging_window=window),
    columns=_REPLAY_KB + (("Elapsed (s)", "elapsed", "%.0f"),),
    fast=((("0", 0.0), ("600", 600.0)), {}))


# ----------------------------------------------------------------------
# Log optimizations on/off

LOGOPT = Ablation(
    name="log-optimizations",
    title="Ablation (section 4.3.3): log optimizations on/off, concord "
          "segment at 9.6 Kb/s",
    axis="Optimizations",
    values=(("on", True), ("off", False)),
    cell=lambda enabled, segment="concord": _replay_cell(
        segment, aging_window=600.0, log_optimizations=enabled),
    columns=_REPLAY_KB,
    fast=((), {"segment": "purcell"}))


# ----------------------------------------------------------------------
# Volume granularity / false sharing

def _false_sharing_cell(n_volumes, total_files=160, updates=8, seed=3):
    """The same cross-client update load over ``n_volumes`` volumes.

    With one giant volume every stamp is invalidated by any update
    (false sharing); with many volumes most stamps survive.
    """
    rng = derive_rng("false-sharing", n_volumes, seed)
    mounts = ["/coda/fs/v%02d" % v for v in range(n_volumes)]
    testbed = build_testbed(_spec("false-sharing", {"start_daemons": False}, [
        VolumeSpec(mount, [(mount + "/d", "dir", 0)] + [
            ("%s/d/f%03d" % (mount, i), "file", 4096)
            for i in range(total_files // n_volumes)])
        for mount in mounts], profile="Ethernet"))
    volumes = testbed.server.registry.volumes()
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
    return {"success_pct": stats.success_fraction * 100,
            "objects_saved": stats.objects_saved}


FALSE_SHARING = Ablation(
    name="false-sharing",
    title="Ablation (section 4.2.2): volume granularity vs validation "
          "success (same update load, fewer/larger volumes)",
    axis="Volumes",
    values=(("1", 1), ("2", 2), ("4", 4), ("8", 8), ("16", 16)),
    cell=_false_sharing_cell,
    columns=(("Stamp validations successful", "success_pct", "%.0f%%"),
             ("Objects saved", "objects_saved", "%d")),
    fast=((("1", 1), ("8", 8)), {"total_files": 48}))


# ----------------------------------------------------------------------
# Header compression (section 4.1's deliberately-unimplemented option)
#
# The paper lists header compression among possible transport
# improvements but "deliberately tried to minimize efforts at the
# transport level"; Figure 1's SFTP receive trial on a modem, saving
# ``saving`` header bytes a packet, quantifies what was left on the
# table: a few percent on a modem, nothing anywhere else.

COMPRESSION = Ablation(
    name="header-compression",
    title="Ablation (section 4.1): VJ-style header compression on a "
          "9.6 Kb/s modem",
    axis="Header bytes saved/packet",
    values=(("0", 0), ("23", 23)),
    cell=lambda saving, transfer_bytes=200_000: {"goodput_kbps": _sftp_trial(
        MODEM, 0.0, "receive", 0, nbytes=transfer_bytes,
        header_savings=saving) / 1000.0},
    columns=(("SFTP goodput (Kb/s)", "goodput_kbps", "%.2f"),),
    fast=((), {"transfer_bytes": 50_000}))


# ----------------------------------------------------------------------
# Cost-aware adaptation (section 8's future work)

def _cost_cell(tariff):
    """The same weakly-connected session on the tariff named ``tariff``.

    Free: the stock aging window.  Cellular (per-MB): the stretched
    window lets more overwrites cancel, so fewer megabytes are paid
    for.  Long distance (per-minute): everything drains promptly so
    the call can end.
    """
    # Overwrite the same file every two minutes for a while: a longer
    # aging window cancels more of these stores.
    draft = (OpStep("write", path="/coda/usr/c/d/draft", size=25_000),
             OpStep("sleep", seconds=120.0))
    venus = run_spec(_spec(
        "cost", {"aging_window": 300.0, "daemon_period": 5.0,
                 "tariff": tariff},
        [_dir_volume("/coda/usr/c")],
        [OpStep("connect"), *draft * 8,
         OpStep("sleep", seconds=600.0)])).testbed.venus
    return {"shipped_kb": venus.trickle.stats.bytes_shipped / 1024.0,
            "optimized_kb": venus.cml.stats.optimized_bytes / 1024.0,
            "cml_left_kb": venus.cml.size_bytes / 1024.0,
            "money_spent": venus.network_cost()}


COST = Ablation(
    name="cost",
    title="Extension (section 8): cost-aware adaptation of the same "
          "session on three tariffs",
    axis="Tariff",
    values=tuple((name, name) for name in TARIFFS),
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
    testbed = build_testbed(_spec(
        "keepalive", {"keepalive_interval": 60.0,
                      "bandwidth_probe_interval": 10 * 3600.0},
        [_dir_volume("/coda/usr/k")]))
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
    name="keepalive",
    title="Ablation (section 4.1): idle keepalive traffic, original "
          "layering vs shared liveness (9.6 Kb/s modem)",
    axis="Scheme",
    values=(("shared", False), ("duplicated", True)),
    cell=_keepalive_cell,
    columns=(("Packets/hour", "packets_per_hour", "%d"),
             ("Bytes/hour", "bytes_per_hour", "%d")),
    fast=((), {"idle_hours": 0.25}))


#: Every ablation, in ``repro figure ablations`` order.
ABLATIONS = (CHUNK, AGING, LOGOPT, FALSE_SHARING, COMPRESSION, COST,
             KEEPALIVE)


def facts(fast):
    """Every ablation's sweep (``@fast``: each one's fast sweep):
    ``{name: {label: facts}}``."""
    return {ablation.name: sweep(ablation, fast) for ablation in ABLATIONS}


def tables(facts):
    return [render(ablation, facts[ablation.name]) for ablation in ABLATIONS]
