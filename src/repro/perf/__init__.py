"""Fleet-scale performance measurement (``repro perf``).

The subsystem has two parts:

* :mod:`repro.perf.profiler` — cProfile capture and hot-frame
  extraction, so the output names the frames worth optimizing;
* :mod:`repro.perf.runner` — the row table (catalogue fleets of
  8/32/64 in-process, their sharded and checkpointed forms,
  trickle-under-outage, a transport sweep) and the wall-clock harness
  that times a row, computes events/sec and sim-seconds per
  wall-second, and emits machine-readable ``BENCH_perf.json`` for
  trajectory tracking across PRs.

Wall-clock reads live in :mod:`repro.perf.runner` only (DET001
allowlists it): the harness *measures* real time but never feeds it
into simulation behaviour, so perf runs remain schedule-deterministic.
"""

from repro.perf.profiler import HotFrame, capture_profile
from repro.perf.runner import (
    SCENARIOS,
    PerfResult,
    format_result,
    results_to_bench,
    run_perf,
    write_bench,
)

__all__ = [
    "HotFrame",
    "PerfResult",
    "SCENARIOS",
    "capture_profile",
    "format_result",
    "results_to_bench",
    "run_perf",
    "write_bench",
]
