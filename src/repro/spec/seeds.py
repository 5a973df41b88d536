"""The one sanctioned scenario-seed function.

Every run folds its user-facing ``--seed`` into a per-scenario master
seed through :func:`master_seed`, which goes through
:func:`repro.sim.rand.derive_rng` with the seed string
``"<kind>::<name>::<seed>"``.  The kinds differ in two conventions
that must stay byte-identical so no golden digest moves:

* ``obs``/``faults`` treat ``seed=None`` as "the canonical run":
  master seed ``0``, skipping derivation entirely;
* ``perf`` always derives (``None`` means seed 0) and keeps 32 bits
  because :class:`~repro.spec.fleet.FleetConfig` seeds were pinned
  that way; ``spec`` always derives too, at 63 bits.
"""

from repro.sim.rand import derive_rng

#: kind -> (None means master 0, bits).  Kept closed so a typo cannot
#: silently fork a seed universe.
_RULES = {
    "obs": (True, 63),
    "faults": (True, 63),
    "perf": (False, 32),
    "spec": (False, 63),
}

SEED_KINDS = tuple(_RULES)


def master_seed(kind, name, seed):
    """Master seed for scenario ``name`` of ``kind`` given CLI ``seed``.

    ``None`` is the canonical golden-pinned run of every kind.  Any
    integer is folded through ``derive_rng(kind, name, seed)`` so
    different scenarios never share a master seed even for equal CLI
    seeds.
    """
    try:
        none_is_zero, bits = _RULES[kind]
    except KeyError:
        raise ValueError("unknown seed kind %r (choose from %s)"
                         % (kind, ", ".join(SEED_KINDS))) from None
    if seed is None:
        if none_is_zero:
            return 0
        seed = 0
    return derive_rng(kind, name, seed).getrandbits(bits)
