"""The shipped scenario catalogue.

Every canned scenario — the instrumentation workloads, the fault
scripts, the Figure 9 fleet studies and their sharded plans, the
three spec-native families and the Figure 12 trace replay — is a
:class:`~repro.spec.model.ScenarioSpec` value here, and the catalogue
name is the one way to refer to it: ``repro run <name>``, ``repro
ledger golden``, the shard planner and the checkpoint manifest all
resolve through :func:`get`.  The golden timeline digests pin what
each name runs.
"""

from repro.spec.model import (
    ClientSpec,
    NetworkSpec,
    OpStep,
    Outage,
    ScenarioSpec,
    VolumeSpec,
    WorkloadSpec,
)

MOUNT = "/coda/usr/bob"

#: The standard one-client testbed volume every ported scenario uses.
STANDARD_VOLUME = VolumeSpec(mount=MOUNT, tree=(
    (MOUNT + "/work", "dir", 0),
    (MOUNT + "/work/draft.tex", "file", 15_000),
    (MOUNT + "/work/figure.eps", "file", 40_000),
    (MOUNT + "/work/notes.txt", "file", 4_000),
))


def _op(op, **fields):
    return OpStep(op=op, **fields)


def _script(name, seed_kind, title, profile, venus, steps, outages=(),
            faults=()):
    return ScenarioSpec(
        name=name, kind="testbed", family="script", seed_kind=seed_kind,
        title=title, venus=venus,
        network=NetworkSpec(profile=profile, outages=outages,
                            faults=faults),
        volumes=(STANDARD_VOLUME,),
        workload=WorkloadSpec(script=steps))


def _fleet(name, seed_kind, title, desktops, laptops, days, shards=None,
           family="figure9", params=()):
    return ScenarioSpec(
        name=name, kind="fleet", family=family, seed_kind=seed_kind,
        title=title, duration=days, shards=shards,
        clients=ClientSpec(count=1, desktops=desktops, laptops=laptops),
        params=params)


# ----------------------------------------------------------------------
# instrumentation workloads (seed kind "obs")

TRICKLE = _script(
    "trickle", "obs",
    "Weak-link trickle reintegration over a 9.6 Kb/s modem",
    "Modem",
    {"aging_window": 300.0, "chunk_seconds": 30.0, "daemon_period": 5.0},
    (
        _op("connect"),
        _op("write", path=MOUNT + "/work/draft.tex", size=16_000),
        _op("sleep", seconds=120.0),
        _op("write", path=MOUNT + "/work/draft.tex", size=17_000),
        _op("write", path=MOUNT + "/work/results.dat", size=120_000),
        _op("sleep", seconds=600.0),
        _op("evict", path=MOUNT + "/work/figure.eps"),
        _op("hoard", path=MOUNT + "/work/figure.eps", priority=900),
        _op("read", path=MOUNT + "/work/figure.eps"),
        _op("sleep", seconds=900.0),
    ))

OUTAGE = _script(
    "outage", "obs",
    "Intermittence over WaveLan: outage, reconnection, validation",
    "WaveLan",
    {"aging_window": 60.0, "daemon_period": 5.0, "probe_interval": 30.0},
    (
        _op("connect"),
        _op("write", path=MOUNT + "/work/notes.txt", size=6_000),
        _op("sleep", seconds=90.0),    # now inside the outage
        _op("write", path=MOUNT + "/work/draft.tex", size=18_000,
            ignore_errors=True),
        _op("sleep", seconds=300.0),   # probes fire, CML drains
        _op("read", path=MOUNT + "/work/figure.eps"),
        _op("sleep", seconds=120.0),
    ),
    outages=(Outage(after=60.0, duration=120.0),))


# ----------------------------------------------------------------------
# fault scripts (seed kind "faults")

SMOKE = _script(
    "smoke", "faults",
    "Everything once, briefly: outage, loss burst, client crash",
    "Modem",
    # The short walk interval gives the client volume stamps (and the
    # snapshot taken at the crash keeps them), so the restart goes
    # through rapid validation, Figures 8-9.
    {"aging_window": 30.0, "daemon_period": 5.0, "probe_interval": 30.0,
     "hoard_walk_interval": 120.0},
    (
        _op("connect"),
        _op("write", path=MOUNT + "/work/notes.txt", size=6_000,
            tag=("smoke", 1)),
        _op("sleep", seconds=55.0),
        _op("write", path=MOUNT + "/work/draft.tex", size=16_000,
            tag=("smoke", 2)),
        _op("sleep", seconds=100.0),
        _op("write", path=MOUNT + "/work/results.dat", size=40_000,
            tag=("smoke", 3)),
        _op("sleep", seconds=130.0),
        # ~290 s: logged just before the scripted crash at 310 s; the
        # record must survive the crash inside the snapshot.
        _op("write", path=MOUNT + "/work/report.txt", size=8_000,
            tag=("smoke", 4)),
        _op("sleep", seconds=400.0),
        # The restarted Venus has reconnected and drained by now.
        _op("read", path=MOUNT + "/work/draft.tex"),
    ),
    faults=(
        {"kind": "link_outage", "at": 90.0, "duration": 40.0},
        {"kind": "loss_burst", "at": 200.0, "duration": 40.0,
         "loss_rate": 0.25},
        {"kind": "client_crash", "at": 310.0},
        {"kind": "client_restart", "at": 340.0},
    ))

CLIENT_CRASH = _script(
    "client-crash", "faults",
    "A client dies mid-trickle and resumes from the barrier",
    "Modem",
    {"aging_window": 30.0, "daemon_period": 5.0, "probe_interval": 30.0},
    (
        _op("connect"),
        _op("write", path=MOUNT + "/work/notes.txt", size=5_000,
            tag=("ccrash", 1)),
        _op("sleep", seconds=80.0),
        # Aged at ~115 s, this 60 KB store is mid-flight (≈55 s on a
        # modem) when the crash lands at 130 s.
        _op("write", path=MOUNT + "/work/results.dat", size=60_000,
            tag=("ccrash", 2)),
        _op("sleep", seconds=520.0),
        _op("read", path=MOUNT + "/work/results.dat"),
    ),
    faults=(
        {"kind": "client_crash", "at": 130.0},
        {"kind": "client_restart", "at": 160.0},
    ))

SERVER_CRASH = _script(
    "server-crash", "faults",
    "A server dies mid-reintegration and comes back 30 s later",
    "Modem",
    {"aging_window": 20.0, "daemon_period": 5.0, "probe_interval": 30.0},
    (
        _op("connect"),
        _op("write", path=MOUNT + "/work/draft.tex", size=16_000,
            tag=("scrash", 1)),
        _op("sleep", seconds=65.0),
        # Aged at ~90 s; the ~27 s transfer straddles the crash at 100.
        _op("write", path=MOUNT + "/work/results.dat", size=30_000,
            tag=("scrash", 2)),
        _op("sleep", seconds=500.0),
        _op("read", path=MOUNT + "/work/results.dat"),
    ),
    faults=(
        {"kind": "server_crash", "at": 100.0},
        {"kind": "server_restart", "at": 130.0},
    ))


# ----------------------------------------------------------------------
# fleet studies (seed kind "perf"; ``shards`` set = has a shard plan)

FLEET_8 = _fleet("fleet-8", "perf", "Figure 9 fleet, 8 clients",
                 desktops=5, laptops=3, days=2.0, shards=2)
FLEET_32 = _fleet("fleet-32", "perf", "Figure 9 fleet, 32 clients",
                  desktops=20, laptops=12, days=1.0, shards=4)
FLEET_64 = _fleet("fleet-64", "perf", "Figure 9 fleet, 64 clients",
                  desktops=40, laptops=24, days=1.0, shards=8)
FLEET_GOLDEN = _fleet("fleet-golden", "perf",
                      "Tiny pinned fleet for the golden fixtures",
                      desktops=2, laptops=1, days=0.5)
FLEET_256 = _fleet("fleet-256", "perf", "Figure 9 fleet, 256 clients",
                   desktops=160, laptops=96, days=0.5, shards=16)
FLEET_1024 = _fleet("fleet-1024", "perf", "Figure 9 fleet, 1024 clients",
                    desktops=640, laptops=384, days=0.125, shards=32)


# ----------------------------------------------------------------------
# spec-native families

COMMUTER = _fleet(
    "commuter", "spec",
    "Diurnal fleet: laptops commute off the network twice a day",
    desktops=16, laptops=12, days=1.0, shards=4, family="commuter",
    params={"work_start": 9.0, "work_end": 17.5,
            "commute_minutes": 40.0, "off_hours_activity": 0.15})

CONFLICT_STORM = ScenarioSpec(
    name="conflict-storm", kind="testbed", family="conflict-storm",
    seed_kind="spec",
    title="Many writers on one shared volume: reintegration conflicts"
          " and repair",
    params={"writers": 6, "files": 8, "file_size": 12_000, "rounds": 2,
            "round_minutes": 30.0, "writes_per_round": 3,
            "keep_mine_every": 2, "drain_seconds": 240.0})

DOC_ARCHIVE = ScenarioSpec(
    name="doc-archive", kind="testbed", family="doc-archive",
    seed_kind="spec",
    title="Stanski-style archive: hoarded prefetch containers under"
          " the patience model",
    params={"containers": 6, "docs_per_container": 8, "doc_size": 24_000,
            "hoarded_containers": 2, "hoard_priority": 600, "reads": 60,
            "think_seconds": 40.0, "annotate_every": 5,
            "note_size": 2_000, "locality": 0.7, "commute_at": 600.0,
            "weak_bps": 9_600.0, "weak_minutes": 90.0})


# ----------------------------------------------------------------------
# trace replay (Figures 12-14)

#: perfbench's ``trickle-replay`` cell: messiaen replayed on a
#: write-disconnected client over a 9.6 Kb/s modem, A = 300 s,
#: lambda = 1 s, after Figure 12's 10-minute warming period.
REPLAY = ScenarioSpec(
    name="replay", kind="testbed", family="replay", seed_kind="spec",
    title="Figure 12 cell: messiaen replayed write-disconnected over a"
          " 9.6 Kb/s modem",
    venus={"aging_window": 300.0, "force_write_disconnected": True},
    network=NetworkSpec(profile="Modem"),
    params={"segment": "messiaen", "think_threshold": 1.0,
            "warm_seconds": 600.0})


#: name -> spec, in presentation order.
CATALOG = {spec.name: spec for spec in (
    TRICKLE, OUTAGE,
    SMOKE, CLIENT_CRASH, SERVER_CRASH,
    FLEET_8, FLEET_32, FLEET_64, FLEET_GOLDEN, FLEET_256, FLEET_1024,
    COMMUTER, CONFLICT_STORM, DOC_ARCHIVE,
    REPLAY,
)}


def shipped():
    """Every shipped spec, catalogue order."""
    return list(CATALOG.values())


def get(name):
    """Spec by name; ValueError lists the valid choices."""
    try:
        return CATALOG[name]
    except KeyError:
        raise ValueError("unknown spec %r (have %s)"
                         % (name, ", ".join(sorted(CATALOG)))) from None


#: REPRO_FAST parameter overrides per testbed family.
FAST_PARAMS = {
    "conflict-storm": {"writers": 4, "rounds": 1},
    "doc-archive": {"reads": 16, "containers": 3, "hoarded_containers": 1,
                    "commute_at": 200.0},
    "replay": {"records": 8_000},
}

#: REPRO_FAST fleet shapes per family.  The generic days/8 cut is
#: wrong for the diurnal commuter — a 3 h window misses both commute
#: edges — so its fast variant shrinks the fleet instead and keeps
#: 0.75 day, long enough to cover the morning and evening commutes.
FAST_FLEET = {
    "commuter": {"desktops": 2, "laptops": 2, "days": 0.75},
}
