"""Regenerate BENCH_perf.json (schema repro.perf/6): one run per row.

``events``, ``sim_seconds`` and the digest/count ``detail`` fields are
pure functions of (scenario, seed, workers) and must not move between
regenerations; the wall-clock fields are informational (``perfbench/``
is the judge for speed).

Usage: PYTHONPATH=src python tools/regen_bench.py
"""

from repro.perf.runner import run_perf, write_bench

ROWS = (
    [(name, None) for name in ("trickle-outage", "transport-sweep",
                               "fleet-golden", "fleet-8", "fleet-32",
                               "fleet-64")]
    + [("fleetd-64", workers) for workers in (1, 4)]
    + [("fleet-256", workers) for workers in (1, 2, 4, 8)]
    + [("fleet-1024", workers) for workers in (1, 2, 4, 8)]
    + [("ckpt-fleet-256", None), ("ckpt-fleet-256-resident", None)]
)


def main():
    results = []
    for name, workers in ROWS:
        result = run_perf(name, profile=False, workers=workers)
        print("done %-24s workers=%-4s %12.0f ev/s"
              % (name, workers, result.events_per_sec), flush=True)
        results.append(result)
    print("wrote", write_bench(results))


if __name__ == "__main__":
    main()
