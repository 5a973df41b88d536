"""The count ledger (``repro perf``): what each macro-scenario dispatches.

:mod:`repro.perf.runner` holds the row table (catalogue fleets of
8/32/64 in-process, their sharded and checkpointed forms,
trickle-under-outage, a transport sweep), runs a row to its facts —
``events``, ``sim_seconds``, digests and counts, each a pure function
of (row, seed) — and reads, writes and diffs ``BENCH_perf.json``, the
committed copy of those facts.  The file holds no host-dependent
field; ``perfbench/`` is the only source of a timing claim.
"""

from repro.perf.runner import (
    SCENARIOS,
    PerfResult,
    diff_rows,
    format_result,
    read_ledger,
    run_perf,
    takes_workers,
    write_ledger,
)

__all__ = [
    "PerfResult",
    "SCENARIOS",
    "diff_rows",
    "format_result",
    "read_ledger",
    "run_perf",
    "takes_workers",
    "write_ledger",
]
