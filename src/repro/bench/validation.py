"""Figure 8: cache validation time under ideal conditions.

Cache contents come from five synthetic hoard profiles shaped like
typical Coda users (a few hundred to a few thousand objects across
many volumes).  For each profile and each of the four networks, the
client disconnects with fresh volume stamps, no server updates occur,
and reconnection validation is timed twice: with volume callbacks
(one batched ValidateVolumes RPC) and without (batched per-object
ValidateAttrs, the original scheme).  Each cell is a script spec run
by ``run_spec`` and timed by the instants its steps end.

Paper conclusions this reproduces: volume callbacks always reduce
validation time; the reduction is modest at 10 Mb/s and dramatic at
9.6 Kb/s, where volume validation takes "only about 25% longer than
at 10 Mb/s".
"""

from dataclasses import dataclass

from repro.bench.results import Table
from repro.net import ETHERNET, ISDN, MODEM, WAVELAN
from repro.sim.rand import derive_rng
from repro.spec.compile import run_spec
from repro.spec.model import OpStep, ScenarioSpec, VolumeSpec

#: The cell's script; the time it reports runs from the end of the
#: ``disconnect`` step to the end of ``validate``.
SCRIPT = (OpStep("connect"), OpStep("disconnect"), OpStep("validate"))


@dataclass(frozen=True)
class HoardProfile:
    """Shape of one user's cache: volumes and objects per volume."""

    user: str
    volumes: int
    files_per_volume: int
    mean_file_size: int

    @property
    def total_objects(self):
        # files plus one directory per volume
        return self.volumes * (self.files_per_volume + 1)


#: Five users, spanning the range of real hoard profile sizes.
PROFILES = (
    HoardProfile("user1", volumes=8, files_per_volume=40,
                 mean_file_size=12_000),
    HoardProfile("user2", volumes=14, files_per_volume=75,
                 mean_file_size=9_000),
    HoardProfile("user3", volumes=22, files_per_volume=90,
                 mean_file_size=14_000),
    HoardProfile("user4", volumes=30, files_per_volume=65,
                 mean_file_size=8_000),
    HoardProfile("user5", volumes=18, files_per_volume=130,
                 mean_file_size=10_000),
)

NETWORKS = (ETHERNET, WAVELAN, ISDN, MODEM)


def _profile_volume(profile, volume_index):
    rng = derive_rng("hoard", profile.user, volume_index)
    mount = "/coda/%s/v%02d" % (profile.user, volume_index)
    tree = [(mount + "/files", "dir", 0)]
    for i in range(profile.files_per_volume):
        size = max(256, int(rng.expovariate(1.0 / profile.mean_file_size)))
        tree.append(("%s/files/f%04d" % (mount, i), "file", size))
    return VolumeSpec(mount=mount, tree=tree)


def _timed_validation(volumes, network, use_volume_callbacks):
    """Seconds to validate a warm cache of ``volumes`` on reconnection
    over ``network``.  The client connects first so the transition is
    legal, then disconnects: stamps survive, callbacks do not."""
    ends = run_spec(ScenarioSpec(
        name="figure8", kind="testbed", family="script", seed_kind="obs",
        venus={"start_daemons": False,
               "use_volume_callbacks": use_volume_callbacks},
        network={"profile": network.name}, volumes=volumes,
        workload={"script": SCRIPT})).step_ends
    return ends[-1] - ends[1]


def run_validation_comparison(profiles=PROFILES, networks=NETWORKS):
    """Run the Figure 8 grid: ``{"user/Network": cell}``, each cell the
    cache's object count and its validation seconds with volume and
    with object callbacks, and their ratio."""
    cells = {}
    for profile in profiles:
        volumes = [_profile_volume(profile, v) for v in range(profile.volumes)]
        for network in networks:
            volume = _timed_validation(volumes, network, True)
            objects = _timed_validation(volumes, network, False)
            cells["%s/%s" % (profile.user, network.name)] = {
                "objects": profile.total_objects,
                "volume_seconds": volume, "object_seconds": objects,
                "speedup": objects / volume}
    return cells


def facts(fast):
    """Five users on four networks (``@fast``: the first user on
    Ethernet and the modem)."""
    if fast:
        return run_validation_comparison(PROFILES[:1], (ETHERNET, MODEM))
    return run_validation_comparison()


def tables(facts):
    table = Table(
        "Figure 8: Validation Time Under Ideal Conditions (seconds)",
        ["User", "Objects", "Network", "Volume CBs", "Object CBs",
         "Speedup"])
    for profile in PROFILES:
        for network in NETWORKS:
            cell = facts.get("%s/%s" % (profile.user, network.name))
            if cell:
                table.add(profile.user, cell["objects"], network.name,
                          "%.2f" % cell["volume_seconds"],
                          "%.2f" % cell["object_seconds"],
                          "%.1fx" % cell["speedup"])
    return [table]
