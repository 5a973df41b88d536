"""Shard planning: partitioning, seeds, and the construction path."""

import pytest

from repro.fleetd import plan_shards, shard_config, shard_seed
from repro.fleetd.plan import _split
from repro.sim.rand import derive_rng
from repro.spec.catalog import get, shipped
from repro.spec.fleet import FleetConfig

#: The catalogue specs that carry a shard plan.
SHARDED = sorted(spec.name for spec in shipped() if spec.shards is not None)


def test_catalogue_populations_are_consistent():
    assert SHARDED == ["commuter", "fleet-1024", "fleet-256", "fleet-32",
                       "fleet-64", "fleet-8"]
    for name in SHARDED:
        assert get(name).kind == "fleet"
        assert get(name).shards >= 2, name


@pytest.mark.parametrize("scenario", SHARDED)
def test_plan_partitions_the_whole_population(scenario):
    spec = get(scenario)
    shards = plan_shards(scenario)
    assert len(shards) == spec.shards
    assert sum(s.desktops for s in shards) == spec.clients.desktops
    assert sum(s.laptops for s in shards) == spec.clients.laptops
    assert {(s.days, s.family) for s in shards} \
        == {(spec.duration, spec.family)}
    assert [s.index for s in shards] == list(range(spec.shards))
    # The split is even: no shard more than one client apart.
    sizes = [s.clients for s in shards]
    assert max(sizes) - min(sizes) <= 2  # desktops and laptops split independently


def test_split_spreads_the_remainder():
    assert _split(10, 4) == [3, 3, 2, 2]
    assert _split(8, 4) == [2, 2, 2, 2]
    assert sum(_split(7, 3)) == 7


def test_prefixes_are_unique_and_identity_bearing():
    shards = plan_shards("fleet-64")
    prefixes = [s.name_prefix for s in shards]
    assert len(set(prefixes)) == len(prefixes)
    assert prefixes[0] == "s00-"
    assert prefixes[7] == "s07-"


def test_shard_seeds_route_through_derive_rng():
    assert shard_seed("fleet-8", 0, 1) == \
        derive_rng("fleetd", "fleet-8", 0, 1).getrandbits(32)
    # Distinct shards, scenarios, and fleet seeds all get distinct
    # universes.
    seeds = {shard_seed(sc, fs, ix)
             for sc in ("fleet-8", "fleet-32")
             for fs in (0, 1) for ix in (0, 1)}
    assert len(seeds) == 8


def test_plan_is_independent_of_how_it_will_run():
    # No worker count anywhere in the planning API: two plans of the
    # same (scenario, seed, days) are equal, full stop.
    assert plan_shards("fleet-8", seed=3) == plan_shards("fleet-8", seed=3)
    assert plan_shards("fleet-8", seed=3) != plan_shards("fleet-8", seed=4)


def test_days_override_reaches_every_shard():
    for shard in plan_shards("fleet-32", days=0.25):
        assert shard.days == 0.25
    # ... without perturbing the seeds.
    assert [s.seed for s in plan_shards("fleet-32", days=0.25)] == \
        [s.seed for s in plan_shards("fleet-32")]


def test_unknown_scenario_lists_the_catalogue():
    """The catalogue's own error, not a second table's."""
    with pytest.raises(ValueError) as unknown:
        plan_shards("fleet-7")
    with pytest.raises(ValueError) as catalogue:
        get("fleet-7")
    assert str(unknown.value) == str(catalogue.value)
    assert "fleet-1024" in str(unknown.value)
    with pytest.raises(ValueError, match="no shard plan"):
        plan_shards("fleet-golden")


def test_shard_config_is_the_single_construction_path():
    shard = plan_shards("fleet-8")[1]
    config = shard_config(shard)
    assert isinstance(config, FleetConfig)
    assert config.desktops == shard.desktops
    assert config.laptops == shard.laptops
    assert config.days == shard.days
    assert config.seed == shard.seed
    assert config.name_prefix == shard.name_prefix
