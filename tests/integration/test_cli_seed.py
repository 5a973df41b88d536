"""The ``--seed`` flag of ``repro run``.

The contract has two halves: an explicit seed must route through
``derive_rng`` (so CLI universes can never collide with another
subsystem's streams), and *no* seed must keep the canonical streams
the golden fixtures pin — ``--seed`` may never silently shift the
fixtures.
"""

from repro.cli import main
from repro.sim.rand import derive_rng
from repro.spec.catalog import get
from repro.spec.compile import fingerprint, run_spec
from repro.spec.seeds import master_seed


def test_scenario_seed_routes_through_derive_rng():
    assert master_seed("obs", "trickle", 7) == \
        derive_rng("obs", "trickle", 7).getrandbits(63)
    assert master_seed("faults", "smoke", 7) == \
        derive_rng("faults", "smoke", 7).getrandbits(63)
    # Same seed, different kinds/names: disjoint universes.
    assert len({master_seed(kind, name, 7)
                for kind, name in (("obs", "trickle"), ("obs", "outage"),
                                   ("faults", "trickle"))}) == 3


def test_no_seed_keeps_the_canonical_streams():
    assert master_seed("obs", "trickle", None) == 0
    default = run_spec(get("trickle")).testbed
    explicit_none = run_spec(get("trickle"), seed=None).testbed
    assert fingerprint(default) == fingerprint(explicit_none)
    assert default.streams.seed == 0


def test_explicit_seed_reaches_the_testbed_streams():
    testbed = run_spec(get("trickle"), seed=11).testbed
    assert testbed.streams.seed == \
        derive_rng("obs", "trickle", 11).getrandbits(63)
    faulted = run_spec(get("smoke"), seed=11).testbed
    assert faulted.streams.seed == \
        derive_rng("faults", "smoke", 11).getrandbits(63)


def test_seeded_runs_are_reproducible():
    assert fingerprint(run_spec(get("outage"), seed=5).testbed) == \
        fingerprint(run_spec(get("outage"), seed=5).testbed)


def test_obs_cli_seed(capsys):
    assert main(["run", "trickle", "--seed", "3"]) == 0
    seeded = capsys.readouterr().out
    assert main(["run", "trickle", "--seed", "3"]) == 0
    again = capsys.readouterr().out
    assert seeded == again
    assert "timeline" in seeded or "events" in seeded


def test_faults_cli_seed(capsys):
    assert main(["run", "smoke", "--seed", "3", "--fingerprint"]) == 0
    seeded = capsys.readouterr().out
    assert "fault timeline: 6 action(s) injected" in seeded
    assert "server_crashes" in seeded           # the fingerprint block
    assert main(["run", "smoke", "--seed", "3", "--fingerprint"]) == 0
    assert capsys.readouterr().out == seeded
