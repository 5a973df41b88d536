"""Figure 10: the distribution of trace-segment compressibility.

The paper divided its week-long traces into 45-minute segments,
selected those whose final (unoptimized) CML was at least 1 MB, and
histogrammed their compressibility — the fraction of CML data that log
optimizations eliminate.  The published shape: "the compressibilities
of roughly a third of the segments are below 20%, while those of the
remaining two-thirds range from 40% to 100%."

Here a population of segments is drawn from randomized generator specs
spanning the same workload mixes (one-shot-heavy mail sessions to
compile-loop marathons) and pushed through the CML simulator.
"""

from repro.bench.results import Table
from repro.sim.rand import derive_rng
from repro.trace.generate import SegmentSpec, generate_segment
from repro.trace.simulator import CmlSimulator

MIN_CML_BYTES = 1 << 20     # segments with >= 1 MB unoptimized CML

BINS = ((0.0, 0.2), (0.2, 0.4), (0.4, 0.6), (0.6, 0.8), (0.8, 1.01))


def _random_spec(index, rng):
    """One random segment spec drawn from a realistic workload mix."""
    style = rng.random()
    if style < 0.35:
        # One-shot heavy: mail folders, data collection — incompressible.
        mix = dict(
            target_references=rng.randrange(20_000, 80_000),
            oneshot_writes=rng.randrange(150, 400),
            oneshot_size=rng.randrange(4_000, 14_000),
            hot_files=rng.randrange(0, 4),
            edit_writes_per_file=rng.randrange(2, 6),
            churn_triples=rng.randrange(0, 10))
    elif style < 0.65:
        # Edit sessions: moderate overwrite activity.
        mix = dict(
            target_references=rng.randrange(20_000, 80_000),
            oneshot_writes=rng.randrange(40, 160),
            oneshot_size=rng.randrange(4_000, 12_000),
            hot_files=rng.randrange(6, 16),
            edit_writes_per_file=rng.randrange(8, 20),
            edit_size=rng.randrange(8_000, 40_000),
            churn_triples=rng.randrange(5, 40),
            churn_size=rng.randrange(4_000, 20_000))
    else:
        # Compile loops and scratch churn: highly compressible.
        mix = dict(
            target_references=rng.randrange(40_000, 160_000),
            oneshot_writes=rng.randrange(10, 80),
            oneshot_size=rng.randrange(4_000, 12_000),
            hot_files=rng.randrange(1, 6),
            edit_writes_per_file=rng.randrange(6, 14),
            compile_runs=rng.randrange(8, 50),
            compile_objs=rng.randrange(8, 30),
            obj_size=rng.randrange(8_000, 40_000),
            churn_triples=rng.randrange(10, 60),
            churn_size=rng.randrange(8_000, 40_000))
    return SegmentSpec(name="seg%03d" % index, seed=1000 + index, **mix)


def _bin(low, high):
    """A bin's key: its bounds in percent, ``"20-40"``."""
    return "%.0f-%.0f" % (low * 100, min(high, 1.0) * 100)


def run_compressibility_study(population=60):
    """Draw ``population`` segments; the count examined, the count kept
    (final CML >= 1 MB) and the kept ones' compressibilities binned by
    :data:`BINS`."""
    rng = derive_rng("compressibility", 7)
    kept = []
    for index in range(1, population + 1):
        segment = generate_segment(_random_spec(index, rng))
        report = CmlSimulator(aging_window=float("inf")).run(segment)
        if report.appended_bytes >= MIN_CML_BYTES:
            kept.append(report.compressibility)
    return {"examined": population, "kept": len(kept),
            "bins": {_bin(low, high): sum(1 for c in kept if low <= c < high)
                     for low, high in BINS}}


def facts(fast):
    """60 segments (18 ``@fast``)."""
    return run_compressibility_study(population=18 if fast else 60)


def tables(facts, fast=False):
    table = Table(
        "Figure 10: Compressibility of Trace Segments "
        "(%d segments with unoptimized CML >= 1 MB)" % facts["kept"],
        ["Compressibility", "Segments", "Share"])
    for low, high in BINS:
        count = facts["bins"][_bin(low, high)]
        table.add("%2.0f%% - %3.0f%%" % (low * 100, min(high, 1.0) * 100),
                  count, "%.0f%%" % (count / max(1, facts["kept"]) * 100))
    return [table]
