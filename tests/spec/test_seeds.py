"""Seed derivation: one sanctioned function, pinned strings byte-identical.

The obs/faults/perf subsystems each folded ``--seed`` their own way;
:func:`repro.spec.seeds.master_seed` keeps those three conventions as
one per-kind table.  These tests pin the seed *strings* — literal
values included — so no refactor can silently move a scenario into a
different stream universe (which would flip every golden digest).
"""

import pytest

from repro.sim.rand import derive_rng
from repro.spec.seeds import SEED_KINDS, master_seed

#: Literal derivations pinned at the time of the dedup; if these move,
#: every golden digest moves with them.
PINNED = {
    ("obs", "trickle", 0): 1908052322877670071,
    ("perf", "fleet-8", 0): 3144153151,
    ("spec", "doc-archive", 0): 4789410862432404000,
}


def test_kinds_are_closed():
    assert SEED_KINDS == ("obs", "faults", "perf", "spec")


@pytest.mark.parametrize("kind", ["obs", "faults"])
def test_none_seed_is_master_zero(kind):
    """obs/faults specs treat None as 'the canonical streams'."""
    assert master_seed(kind, "anything", None) == 0


@pytest.mark.parametrize("kind", SEED_KINDS)
def test_derivation_goes_through_the_sanctioned_path(kind):
    bits = 32 if kind == "perf" else 63
    assert master_seed(kind, "demo", 7) \
        == derive_rng(kind, "demo", 7).getrandbits(bits)


def test_pinned_literals():
    for (kind, name, seed), literal in PINNED.items():
        assert master_seed(kind, name, seed) == literal


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown seed kind"):
        master_seed("bench", "x", 0)


def test_perf_master_always_derives_32_bit():
    """perf historically derived even for the CLI default seed 0."""
    expected = derive_rng("perf", "fleet-8", 0).getrandbits(32)
    assert master_seed("perf", "fleet-8", None) == expected
    assert master_seed("perf", "fleet-8", 0) == expected
    assert master_seed("perf", "fleet-8", 0) < 2 ** 32


def test_spec_master_always_derives_63_bit():
    expected = derive_rng("spec", "commuter", 0).getrandbits(63)
    assert master_seed("spec", "commuter", None) == expected
    assert master_seed("spec", "commuter", 0) == expected


def test_kinds_never_collide():
    """The kind prefix separates universes for the same (name, seed)."""
    seeds = {master_seed(kind, "same-name", 3) for kind in SEED_KINDS}
    assert len(seeds) == len(SEED_KINDS)
