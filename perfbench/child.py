"""One repetition of one workload, in a process of its own.

``python -m perfbench.child <workload> --seed S --mode M --tmp DIR``
sets the workload up, runs its timed region once and prints one JSON
record on the last line of standard output.  A fresh process per
repetition makes ``ru_maxrss`` and set-up time per-repetition numbers.

Modes: ``timed`` (nothing attached: the only source of end-to-end
metrics), ``profiled`` (cProfile around the timed region) and
``counted`` (a ``repro.obs.Observatory`` attached, spans recorded).
"""

import time

ENTRY = time.perf_counter()     # before the program under test is imported

import argparse     # noqa: E402
import cProfile     # noqa: E402
import gc           # noqa: E402
import json         # noqa: E402
import os           # noqa: E402
import pstats       # noqa: E402
import resource     # noqa: E402
import sys          # noqa: E402
import tempfile     # noqa: E402
import traceback    # noqa: E402

from perfbench.layers import fold_profile, observed_counters  # noqa: E402
from perfbench.spans import Spans   # noqa: E402

MODES = ("timed", "profiled", "counted")
SHOWN_FAILURES = 10


def _collections():
    return sum(generation["collections"] for generation in gc.get_stats())


def repetition(load, seed, mode, tmp, entry=None):
    """Run one repetition; returns the JSON-ready record.

    ``load`` returns ``(workload, scale)``: a
    :class:`perfbench.workloads.Workload` and its input sizes
    (importing them imports ``repro``, which is part of set-up).  A
    workload that raises — in set-up, in the timed region or in its
    checks — is one failed operation with its traceback, not the end of
    the run.
    """
    entry = time.perf_counter() if entry is None else entry
    spans = Spans(enabled=mode != "timed")
    record = {"mode": mode, "seed": seed, "attempted": 1, "failed": 1,
              "failures": [], "fingerprint": None, "counters": {}}
    try:
        with spans.span("setup"):
            workload, scale = load()
            inputs = workload.prepare(seed, scale, spans, tmp)
        record["setup_s"] = time.perf_counter() - entry
        profile = cProfile.Profile() if mode == "profiled" else None
        collections = _collections()
        wall, cpu = time.perf_counter(), time.process_time()
        if profile is not None:
            profile.enable()
        try:
            with spans.span("timed"):
                raw = workload.execute(inputs, spans, mode == "counted")
        finally:
            if profile is not None:
                profile.disable()
            record["wall_s"] = time.perf_counter() - wall
            record["cpu_s"] = time.process_time() - cpu
            record["gc_collections"] = _collections() - collections
        with spans.span("finish"):
            outcome = workload.finish(inputs, raw, spans)
    except Exception:
        record["failures"] = [traceback.format_exc(limit=8)]
    else:
        failures = outcome["failures"]
        record.update(
            attempted=outcome["attempted"],
            failed=outcome.get("failed", len(failures)),
            failures=failures[:SHOWN_FAILURES],
            fingerprint=outcome["fingerprint"],
            counters=outcome["counters"], notes=outcome.get("notes", []))
        if "observed" in outcome:
            counted = observed_counters(outcome["observed"])
            counted.update(record["counters"])
            record["counters"] = counted
        if profile is not None:
            import repro
            root = os.path.dirname(os.path.realpath(repro.__file__)) + os.sep
            record["profile"] = fold_profile(pstats.Stats(profile).stats,
                                             root)
    record["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["spans"] = spans.records
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=MODES, default="timed")
    parser.add_argument("--scale", default="full",
                        help="input sizes: full, or smoke for the self-test")
    parser.add_argument("--tmp", required=True,
                        help="directory the repetition may write under")
    args = parser.parse_args(argv)

    def load():
        from perfbench import workloads
        return workloads.WORKLOADS[args.workload], workloads.SCALES[args.scale]

    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        record = repetition(load, args.seed, args.mode, tmp, entry=ENTRY)
    record["workload"] = args.workload
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
