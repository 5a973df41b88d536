"""Static and dynamic enforcement of the determinism contract.

Every figure and table this repository reproduces rests on one claim:
the simulator is a pure function of ``(seed, scenario)``.  PR 1 and
PR 2 each added schedule-identity regression tests, but the contract
itself — no wall clock, all randomness through named ``sim.rand``
streams, kernel-only heap access — was enforced only by convention.
This package enforces it mechanically, in three layers:

* :mod:`repro.analysis.lint` — an AST rule engine (``repro lint``)
  that rejects wall-clock reads, unmanaged randomness, hash-order
  hazards that feed the scheduler, float-timestamp equality, event-heap
  access outside the kernel, and trace-event kinds outside the closed
  taxonomy.
* :mod:`repro.analysis.divergence` — a schedule-divergence probe that
  every ``repro ledger golden`` check runs: the pinned table replays
  in two child interpreters under perturbed ``PYTHONHASHSEED``, global
  ``random`` and decoy random streams, and the first event where the
  two timelines disagree is named — a race detector for hidden
  nondeterminism the linter cannot see.
* :mod:`repro.analysis.invariants` — a runtime checker that asserts
  cross-component invariants (CML seqno monotonicity across
  crash/restore, store version monotonicity, link byte conservation,
  callback volatility) from the existing observability hook points.
"""

from repro.analysis.lint import Finding, lint_package, lint_paths, lint_source
from repro.analysis.invariants import InvariantChecker, InvariantViolation

__all__ = [
    "Finding",
    "InvariantChecker",
    "InvariantViolation",
    "lint_package",
    "lint_paths",
    "lint_source",
]
