"""repro.spec: declarative, serializable, seedable scenario specs.

Every experiment in the paper is a (clients, volumes, network,
workload, duration) tuple.  This package makes that tuple a first-
class, validated, JSON-round-trippable object — a
:class:`~repro.spec.model.ScenarioSpec` — and provides the compiler
(:mod:`repro.spec.compile`) that turns a spec into exactly the
testbed/fleet constructions the ``obs``, ``faults``, ``perf``, and
``fleetd`` subsystems used to hand-build: every canned scenario is a
catalogue spec run through :func:`~repro.spec.compile.run_spec`,
pinned byte-identical by the golden timeline digests.

Beyond the ports, the spec DSL opens workload families the original
evaluation never ran (:mod:`repro.spec.families`): ``commuter``
(diurnal connect/disconnect day-cycles across a fleet),
``conflict-storm`` (many writers on one shared volume stressing
reintegration and repair), and ``doc-archive`` (Stanski-style
prefetch-container archiving driving hoard misses under the patience
model) — and ``replay`` makes the paper's own trace replay (Figures
12-14) a spec: every Figure 12 cell is ``run_spec`` of the catalogue's
``replay`` with its segment, network and aging window swapped.

Seeds route through the one sanctioned function
(:func:`repro.spec.seeds.master_seed`): ``derive_rng("<kind>", name,
seed)`` with the pinned seed strings, so no golden digest moves.
"""

from repro.spec.catalog import CATALOG, get, shipped
from repro.spec.compile import RunResult, run_spec
from repro.spec.model import (
    ClientSpec,
    NetworkSpec,
    OpStep,
    Outage,
    ScenarioSpec,
    SpecError,
    VolumeSpec,
    WorkloadSpec,
)
from repro.spec.seeds import master_seed

__all__ = [
    "CATALOG",
    "ClientSpec",
    "NetworkSpec",
    "OpStep",
    "Outage",
    "RunResult",
    "ScenarioSpec",
    "SpecError",
    "VolumeSpec",
    "WorkloadSpec",
    "get",
    "master_seed",
    "run_spec",
    "shipped",
]
