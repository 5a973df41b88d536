"""Seeded synthetic trace generation.

A segment is assembled from *activities* resembling the workloads the
paper's traces captured on CMU workstations:

* **edit cycles** — a hot file is read, pondered over, and rewritten;
  successive stores of the same file cancel in the CML;
* **compile runs** — many sources are read and a set of object files
  rewritten; each run's objects overwrite the previous run's;
* **temp churn** — scratch files are created, written, and soon
  unlinked, annihilating completely under log optimization;
* **one-shot writes** — files written once (mail, saved data); these
  are incompressible;
* **browsing** — stats, lookups, reads and readdirs that dominate the
  reference count but produce no CML records;
* **directory work** — scratch directories made, half of them soon
  removed again (mkdir, then rmdir after a pause).

Think time is explicit: bursts are separated by pauses drawn from the
spec's pause budget, so the think-threshold (lambda) sensitivity of
section 6.2.1 behaves like the paper's traces.  Everything is driven
by a named random stream, so a spec always generates the same trace.
"""

import random
from dataclasses import dataclass

from repro.trace.records import TraceOp, TraceRecord, TraceSegment


@dataclass
class SegmentSpec:
    """Parameters for one synthetic trace segment."""

    name: str
    seed: int = 0
    duration: float = 2700.0           # 45 minutes
    mount: str = "/coda/usr/trace"
    # tree shape ------------------------------------------------------
    n_dirs: int = 12
    n_source_files: int = 240
    source_size: int = 9_000           # mean bytes of a pre-existing file
    # activities --------------------------------------------------------
    hot_files: int = 4                 # files receiving repeated edits
    edit_writes_per_file: int = 10
    edit_size: int = 12_000
    compile_runs: int = 0
    compile_reads: int = 30            # sources read per run
    compile_objs: int = 12             # objects rewritten per run
    obj_size: int = 14_000
    churn_triples: int = 10            # create+write+unlink scratch files
    churn_size: int = 9_000
    churn_lifetime: float = 20.0       # seconds before the unlink
    oneshot_writes: int = 120          # files written exactly once
    oneshot_size: int = 11_000
    dir_pairs: int = 6                 # mkdir (+ later rmdir for half)
    # reference filler ----------------------------------------------------
    target_references: int = 50_000
    # think-time structure -------------------------------------------------
    pauses_big: int = 40               # pauses in [10 s, 60 s]
    pauses_med: int = 120              # pauses in [1 s, 10 s)
    micro_gap: float = 0.003           # seconds between ops inside bursts
    # where in [0,1) of the segment updates may fall; lets a preset be
    # front- or back-loaded to shape Begin-CML (Figure 14)
    update_anchor: tuple = (0.0, 1.0)

    def rng(self):
        # repro: allow[DET002] spec-level seed derivation: the seed string is
        # part of the published segment identity (Figure 11/14 tables), and no
        # simulator exists yet when a spec generates its trace.
        return random.Random("segment::%s::%s" % (self.name, self.seed))


def build_tree(spec, rng=None):
    """The pre-existing tree a segment runs against.

    Returns ``{path: ("dir", 0) | ("file", size)}`` including the mount
    root's subdirectories.
    """
    rng = rng or spec.rng()
    tree = {}
    dirs = []
    for d in range(spec.n_dirs):
        path = "%s/d%02d" % (spec.mount, d)
        tree[path] = ("dir", 0)
        dirs.append(path)
    for i in range(spec.n_source_files):
        directory = dirs[i % len(dirs)]
        size = max(256, int(rng.lognormvariate(0.0, 0.7)
                            * spec.source_size))
        tree["%s/src%04d.c" % (directory, i)] = ("file", size)
    return tree


class _Burst:
    """A group of operations issued closely together."""

    def __init__(self, ops, anchor=None):
        self.ops = ops          # list of (op_fn_args) tuples sans time
        self.anchor = anchor    # preferred position in [0,1), or None


def generate_segment(spec):
    """Generate the trace for ``spec``; returns a TraceSegment."""
    rng = spec.rng()
    tree = build_tree(spec, rng=rng)
    dirs = sorted(p for p, (kind, _s) in tree.items() if kind == "dir")
    sources = sorted(p for p, (kind, _s) in tree.items() if kind == "file")
    bursts = []

    def jitter(mean):
        return max(128, int(rng.expovariate(1.0 / mean)))

    def update_anchor():
        return rng.uniform(*spec.update_anchor)

    # Edit cycles: writes to each hot file spread across the segment.
    hot = rng.sample(sources, min(spec.hot_files, len(sources)))
    for path in hot:
        for _ in range(spec.edit_writes_per_file):
            ops = [(TraceOp.READ, path, 0, "emacs"),
                   (TraceOp.WRITE, path, jitter(spec.edit_size), "emacs")]
            bursts.append(_Burst(ops, anchor=update_anchor()))

    # Compile runs: read sources, rewrite the same object files.
    obj_dir = dirs[0]
    for _run in range(spec.compile_runs):
        ops = []
        for path in rng.sample(sources,
                               min(spec.compile_reads, len(sources))):
            ops.append((TraceOp.READ, path, 0, "cc"))
        for obj in range(spec.compile_objs):
            ops.append((TraceOp.WRITE, "%s/obj%03d.o" % (obj_dir, obj),
                        jitter(spec.obj_size), "cc"))
        bursts.append(_Burst(ops, anchor=update_anchor()))

    # Temp churn: create, write, unlink.
    tmp_dir = dirs[-1]
    for i in range(spec.churn_triples):
        path = "%s/tmp%05d" % (tmp_dir, i)
        ops = [(TraceOp.WRITE, path, jitter(spec.churn_size), "sort"),
               ("PAUSE", min(spec.churn_lifetime, 9.0), None, None),
               (TraceOp.UNLINK, path, 0, "sort")]
        bursts.append(_Burst(ops, anchor=update_anchor()))

    # One-shot writes.
    for i in range(spec.oneshot_writes):
        directory = dirs[i % len(dirs)]
        path = "%s/out%05d.dat" % (directory, i)
        ops = [(TraceOp.WRITE, path, jitter(spec.oneshot_size), "write")]
        bursts.append(_Burst(ops, anchor=update_anchor()))

    # Directory work.
    for i in range(spec.dir_pairs):
        path = "%s/work%03d" % (dirs[i % len(dirs)], i)
        ops = [(TraceOp.MKDIR, path, 0, "mkdir")]
        if i % 2 == 0:
            ops.append(("PAUSE", 5.0, None, None))
            ops.append((TraceOp.RMDIR, path, 0, "rmdir"))
        bursts.append(_Burst(ops, anchor=update_anchor()))

    # Browsing filler to reach the reference target.
    planned = sum(len(b.ops) for b in bursts)
    missing = max(0, spec.target_references - planned)
    browse_ops = (TraceOp.STAT, TraceOp.LOOKUP, TraceOp.READ,
                  TraceOp.READDIR)
    while missing > 0:
        burst_len = min(missing, rng.randint(20, 120))
        ops = []
        for _ in range(burst_len):
            op = rng.choice(browse_ops)
            if op is TraceOp.READDIR:
                ops.append((op, rng.choice(dirs), 0, "ls"))
            else:
                ops.append((op, rng.choice(sources), 0,
                            rng.choice(("csh", "grep", "more", "make"))))
        bursts.append(_Burst(ops, anchor=rng.random()))
        missing -= burst_len

    # ---- Assign timestamps -------------------------------------------
    # Bursts are laid out by anchor; pauses from the budget separate
    # them; micro-gaps separate ops within a burst.
    bursts.sort(key=lambda b: (b.anchor if b.anchor is not None
                               else rng.random()))
    pauses = ([rng.uniform(10.0, 60.0) for _ in range(spec.pauses_big)]
              + [rng.uniform(1.0, 10.0) for _ in range(spec.pauses_med)])
    rng.shuffle(pauses)
    # Spread the pause budget over burst boundaries.
    boundaries = len(bursts)
    pause_at = {}
    for index, pause in enumerate(pauses):
        slot = rng.randrange(boundaries) if boundaries else 0
        pause_at[slot] = pause_at.get(slot, 0.0) + pause

    records = []
    now = 0.0
    for index, burst in enumerate(bursts):
        now += pause_at.get(index, 0.0)
        for op in burst.ops:
            if op[0] == "PAUSE":
                now += op[1]
                continue
            kind, path, size, program = op
            now += rng.uniform(0.5, 1.5) * spec.micro_gap
            records.append(TraceRecord(time=now, op=kind, path=path,
                                       size=size, program=program))
    # Normalize to the requested duration.
    if records and records[-1].time > 0:
        scale = spec.duration / records[-1].time
        if scale < 1.0:
            for record in records:
                record.time *= scale
    return TraceSegment(name=spec.name, duration=spec.duration,
                        records=records, tree=tree, spec=spec)


@dataclass
class WeekTraceSpec:
    """A week-long update stream for the Figure 4 aging analysis.

    Only updates matter to the analysis, so the generator emits
    overwrite chains directly: each chain is a file stored repeatedly
    with inter-write intervals drawn log-normally.  ``interval_median``
    and ``interval_sigma`` shape the trace's Figure 4 curve; chains and
    sizes set the absolute savings (the figure's denominator).
    """

    name: str
    seed: int = 0
    duration: float = 7 * 86_400.0
    chains: int = 400                 # overwrite chains
    writes_per_chain: int = 12
    write_size: int = 24_000
    interval_median: float = 120.0    # seconds between overwrites
    interval_sigma: float = 1.6       # lognormal sigma
    churn_fraction: float = 0.25      # chains ending in an unlink
    mount: str = "/coda/usr/trace"

    def rng(self):
        # repro: allow[DET002] week-trace seed derivation: same contract as
        # SegmentSpec.rng — a stable pre-simulation seed string frozen by the
        # Figure 4 aging tables.
        return random.Random("week::%s::%s" % (self.name, self.seed))


def generate_week_trace(spec):
    """Generate the update stream for a week-long trace spec."""
    import math
    rng = spec.rng()
    records = []
    tree = {"%s/w" % spec.mount: ("dir", 0)}
    mu = math.log(spec.interval_median)
    for chain in range(spec.chains):
        path = "%s/w/f%05d" % (spec.mount, chain)
        tree[path] = ("file", spec.write_size)
        start = rng.uniform(0.0, spec.duration * 0.9)
        now = start
        for _write in range(spec.writes_per_chain):
            size = max(256, int(rng.expovariate(1.0 / spec.write_size)))
            records.append(TraceRecord(time=now, op=TraceOp.WRITE,
                                       path=path, size=size,
                                       program="emacs"))
            now += rng.lognormvariate(mu, spec.interval_sigma)
            if now > spec.duration:
                break
        if rng.random() < spec.churn_fraction and now <= spec.duration:
            records.append(TraceRecord(time=now, op=TraceOp.UNLINK,
                                       path=path, program="rm"))
    records.sort(key=lambda record: record.time)
    return TraceSegment(name=spec.name, duration=spec.duration,
                        records=records, tree=tree, spec=spec)
