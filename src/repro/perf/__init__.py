"""The count ledger's rows (``repro ledger perf``): what each macro-scenario
dispatches.

:mod:`repro.perf.runner` holds the row table (catalogue fleets of
8/32/64 in-process, their sharded and checkpointed forms,
trickle-under-outage, a transport sweep) and runs a row to its facts —
``events``, ``sim_seconds``, digests and counts, each a pure function
of (row, seed).  ``BENCH_perf.json`` is the committed copy of those
facts, read, checked and rewritten by :mod:`repro.analysis.ledger`.
The file holds no host-dependent field; ``perfbench/`` is the only
source of a timing claim.
"""

from repro.perf.runner import SCENARIOS, run_perf, takes_workers

__all__ = ["SCENARIOS", "run_perf", "takes_workers"]
