"""Figure 8: cache validation time under ideal conditions.

Cache contents come from five synthetic hoard profiles shaped like
typical Coda users (a few hundred to a few thousand objects across
many volumes).  For each profile and each of the four networks, the
client disconnects with fresh volume stamps, no server updates occur,
and reconnection validation is timed twice: with volume callbacks
(one batched ValidateVolumes RPC) and without (batched per-object
ValidateAttrs, the original scheme).

Paper conclusions this reproduces: volume callbacks always reduce
validation time; the reduction is modest at 10 Mb/s and dramatic at
9.6 Kb/s, where volume validation takes "only about 25% longer than
at 10 Mb/s".
"""

from dataclasses import dataclass

from repro.bench.results import Table
from repro.net import ETHERNET, ISDN, MODEM, WAVELAN
from repro.sim.rand import derive_rng
from repro.spec.testbed import make_testbed, populate_volume, warm_cache
from repro.venus import VenusConfig


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


def _profile_tree(profile, volume_index):
    rng = derive_rng("hoard", profile.user, volume_index)
    mount = "/coda/%s/v%02d" % (profile.user, volume_index)
    tree = {mount + "/files": ("dir", 0)}
    for i in range(profile.files_per_volume):
        size = max(256, int(rng.expovariate(1.0 / profile.mean_file_size)))
        tree["%s/files/f%04d" % (mount, i)] = ("file", size)
    return mount, tree


def _build_client(profile, network, use_volume_callbacks):
    config = VenusConfig(start_daemons=False,
                         use_volume_callbacks=use_volume_callbacks)
    testbed = make_testbed(network, venus_config=config)
    for v in range(profile.volumes):
        mount, tree = _profile_tree(profile, v)
        volume = populate_volume(testbed.server, mount, tree)
        warm_cache(testbed.venus, testbed.server, volume)
    return testbed


@dataclass
class ValidationResult:
    user: str
    network: str
    objects: int
    volume_seconds: float
    object_seconds: float

    @property
    def speedup(self):
        if not self.volume_seconds:
            return float("inf")
        return self.object_seconds / self.volume_seconds


def _timed_validation(profile, network, use_volume_callbacks):
    testbed = _build_client(profile, network, use_volume_callbacks)
    venus = testbed.venus

    def reconnect_and_validate():
        # Simulate a disconnection (stamps survive, callbacks do not).
        venus.handle_disconnection()
        start = venus.sim.now
        yield from venus.validator.validate_all()
        return venus.sim.now - start

    # Enter a connected state first so the transition is legal.
    def scenario():
        yield from venus.connect()
        elapsed = yield from reconnect_and_validate()
        return elapsed

    return testbed.run(scenario())


def run_validation_comparison(profiles=PROFILES, networks=NETWORKS):
    """Run the Figure 8 grid; returns a list of ValidationResult."""
    results = []
    for profile in profiles:
        for network in networks:
            with_volumes = _timed_validation(profile, network, True)
            without = _timed_validation(profile, network, False)
            results.append(ValidationResult(
                user=profile.user, network=network.name,
                objects=profile.total_objects,
                volume_seconds=with_volumes,
                object_seconds=without))
    return results


def format_table(results):
    table = Table(
        "Figure 8: Validation Time Under Ideal Conditions (seconds)",
        ["User", "Objects", "Network", "Volume CBs", "Object CBs",
         "Speedup"])
    for row in results:
        table.add(row.user, row.objects, row.network,
                  "%.2f" % row.volume_seconds,
                  "%.2f" % row.object_seconds,
                  "%.1fx" % row.speedup)
    return table
