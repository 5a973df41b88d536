"""Shard planning: partition a fleet scenario into shared-nothing shards.

A fleet scenario interacts only along volume-ownership edges: a client
touches its private volume, the shared project volumes of its
community, the system volumes its administrator updates, and the extra
volumes it roams into.  Partitioning the fleet so that every such edge
stays *inside* one shard makes the shards shared-nothing: shard *i* is
a subset of clients plus a server hosting only the volumes they touch,
and nothing in shard *i* can observe — let alone perturb — shard *j*.

Two properties make the partition sound:

* **The plan never depends on worker count.**  A scenario always
  splits into the same shards with the same seeds, so running the plan
  on 1, 2, or 8 workers (or in-process) yields byte-identical merged
  output; workers only change wall-clock.
* **Seeds derive through the sanctioned path.**  Shard *k* of scenario
  *s* at fleet seed *n* draws its master seed from
  ``derive_rng("fleetd", s, n, k)``, so shard universes can never
  collide with each other or with any other subsystem's streams.

Client names get a per-shard prefix (``s03-bach``), which flows into
private volume paths (``/coda/usr/s03-bach``) and stream names, so an
object's identity names the shard that owns it — the merged-stream
invariant sweep (:mod:`repro.fleetd.verify`) checks containment from
exactly this.
"""

from dataclasses import dataclass

from repro.sim.rand import derive_rng


@dataclass(frozen=True)
class Shard:
    """One shared-nothing slice of a fleet scenario (picklable)."""

    scenario: str
    index: int
    shards: int
    desktops: int
    laptops: int
    days: float
    seed: int           # derived master seed for this shard's streams
    name_prefix: str    # owns every client/volume identity it stamps
    family: str = "figure9"

    @property
    def clients(self):
        return self.desktops + self.laptops


def shard_seed(scenario, seed, index):
    """Master seed for shard ``index`` of ``(scenario, seed)``.

    Routed through :func:`repro.sim.rand.derive_rng` with the seed
    string ``"fleetd::<scenario>::<seed>::<index>"``.
    """
    return derive_rng("fleetd", scenario, seed, index).getrandbits(32)


def _split(total, shards):
    """Spread ``total`` clients over ``shards`` as evenly as possible."""
    base, extra = divmod(total, shards)
    return [base + (1 if index < extra else 0) for index in range(shards)]


def plan_shards(scenario, seed=0, days=None):
    """The shard plan for ``scenario``: a list of :class:`Shard`.

    ``scenario`` is a catalogue name whose spec carries a shard count
    (fleet-8/32/64 also run in-process; fleet-256 and fleet-1024 exist
    only sharded; commuter is the diurnal family behind the same
    interface).  ``days`` overrides the spec's simulated duration
    (used by fast CI modes and tests); everything else — shard count,
    population split, seeds — is fixed per scenario so the plan is
    independent of how it will be executed.  Unknown names raise the
    catalogue's own ValueError, listing it.
    """
    from repro.spec.catalog import get
    spec = get(scenario)
    if spec.shards is None:
        raise ValueError("spec %r has no shard plan (its catalogue "
                         "entry sets no `shards`)" % scenario)
    desktops = _split(spec.clients.desktops, spec.shards)
    laptops = _split(spec.clients.laptops, spec.shards)
    return [Shard(scenario=scenario, index=index, shards=spec.shards,
                  desktops=desktops[index], laptops=laptops[index],
                  days=spec.duration if days is None else days,
                  seed=shard_seed(scenario, seed, index),
                  name_prefix="s%02d-" % index,
                  family=spec.family)
            for index in range(spec.shards)]


def shard_config(shard):
    """The family config realizing ``shard``, via the spec compiler.

    Every shard keeps the classic per-community volume population
    (shared/system/extra counts are the family config's defaults): a
    shard models one project group on its own volume set, which is the
    paper's own unit of interaction.  This is the single construction
    path — the executor, the golden fixtures, and the verify reference
    all build shard simulations through here, so "the same clients
    simulated alone" is true by construction, not by convention.
    Compilation goes through :func:`repro.spec.compile.fleet_config`
    with the shard's population overriding the spec's, so a figure9
    shard still produces exactly the classic
    :class:`repro.spec.fleet.FleetConfig`.
    """
    from dataclasses import replace
    from repro.spec.catalog import get
    from repro.spec.compile import fleet_config

    config = fleet_config(get(shard.scenario), master=shard.seed,
                          days=shard.days, name_prefix=shard.name_prefix)
    return replace(config, desktops=shard.desktops, laptops=shard.laptops)
