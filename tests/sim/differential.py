"""Differential scheduler harness: prove two queue kinds dispatch alike.

The golden digests pin the obs timeline of eleven scenarios; this
harness is the finer instrument behind them.  It runs the *same*
scenario once per scheduler kind (:mod:`repro.sim.queue`) and
byte-compares up to four witnesses:

* **dispatch tier** — every single dispatch, as the canonical line
  ``(when, priority, seq, event-class)`` read through
  ``Simulator.peek_entry()`` immediately before the event runs.  Any
  ordering disagreement between queue kinds — a swapped tie, an
  out-of-order bucket, a mis-sliced timeout — shows up at the exact
  event index where it happens.  The instance-level ``step`` override
  routes the run through the kernel's generic loop, so this tier also
  exercises the plain queue interface of whatever kind is under test
  (including deliberately broken ones; see ``broken_queues.py``).
* **timeline tier** — the obs event timeline, captured *without* any
  probe, so the kernel takes its per-kind inlined fast loop.  This is
  the tier that proves the fast paths themselves — not just the
  ``pop()`` interface — are schedule-identical.
* **stops tier** (the event-stopped mode; opt in with ``--tier
  stops``) — one line per ``Simulator.run`` call: how it was stopped
  (``event:<class>`` or the deadline), where the clock and the
  dispatch count landed, and the entry left at the head of the queue.
  Captured through a class-level wrapper, so each kind keeps its own
  loop; with ``--queue plain`` (the reference heap behind the kernel's
  plain ``step()`` loop) all three loops of ``Simulator.run`` are
  compared.  A loop that overruns its stop event, stops one dispatch
  early, or reorders the same-instant remnant left queued for the next
  ``run`` differs here at that very call.

* **metrics tier** (opt in with ``--tier metrics``) — one line per
  row of ``observatory.metrics.rows()`` after a probe-free run: value,
  min, max *and* ``last_update``.  The fast loops keep the two kernel
  metrics (``sim.events_dispatched``, ``sim.queue_depth``) in locals
  and land them once per run; ``--queue plain`` is ``step()`` doing an
  ``inc()`` and a ``set()`` per dispatch, so this tier proves what the
  loops write back is what the reference would have left behind.

Scenario specs are the ``repro.analysis.divergence`` syntax
(``obs:<name>``, ``faults:<name>``, ``mod:<module>:<function>``) plus
``perf:<name>`` for the catalogued macro-scenarios, or a bare callable
taking ``observatory=``.  Usable as a script for the CI
``queue-differential`` and ``pool-differential`` smoke jobs::

    PYTHONPATH=src python tests/sim/differential.py \
        --scenario obs:trickle --scenario perf:fleet-32 \
        --queue heap --queue calendar --digest

    PYTHONPATH=src python tests/sim/differential.py \
        --scenario obs:trickle --queue calendar \
        --pooling off --pooling on

``--digest`` streams each dispatch line into a sha256 instead of
keeping it (fleet-scale runs dispatch millions of events); divergence
is still detected, just without the surrounding context lines.

``--pooling`` (repeatable) extends the comparison to the object-pool
axis (:mod:`repro.sim.pool`): the grid becomes every ``kind/mode``
cell, compared pairwise against the first cell.  Pooling is
schedule-identical *by construction* — pooled primitives draw their
sequence numbers at the same program points as the unpooled
allocations, and the batched link lane pins each wakeup to the exact
absolute due time the unpooled per-packet timeout would use — so both
tiers compare full lines with no canonicalisation, ties included.
"""

import hashlib
import json
import sys
from dataclasses import dataclass, field

from repro.analysis.divergence import (
    _canonical,
    compare_timelines,
    resolve_scenario,
)
from repro.sim import kernel
from repro.sim.events import Event
from repro.sim.pool import use_pooling
from repro.sim.queue import HeapQueue, register_kind, use_kind

DEFAULT_KINDS = ("heap", "calendar")
DEFAULT_TIERS = ("dispatch", "timeline")
TIERS = DEFAULT_TIERS + ("stops", "metrics")
#: The pooling grid the CI pool-differential job sweeps; ``None`` in
#: diff_scenario means "session default only" (the pre-pooling axis
#: behaviour, plain kind labels).
DEFAULT_POOLINGS = ("off", "on")


class PlainHeapQueue(HeapQueue):
    """The reference heap, served by the kernel's plain ``step()`` loop.

    ``Simulator.run`` inlines its fast loops only for exactly
    ``HeapQueue`` and ``CalendarQueue``; any other type — this one
    included — goes through the documented queue interface alone.
    """

    kind = "plain"

    __slots__ = ()


def register_plain_kind():
    """Make the plain-loop kind buildable by name via make_queue."""
    register_kind(PlainHeapQueue.kind, PlainHeapQueue)


class _keep_pooling:
    """No-op stand-in for ``use_pooling`` when no mode is forced."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


def _pooling_ctx(pooling):
    return _keep_pooling() if pooling is None else use_pooling(pooling)


def resolve(spec):
    """Like divergence's resolver, plus ``perf:<name>`` and callables."""
    if callable(spec):
        return spec
    if isinstance(spec, str) and spec.startswith("perf:"):
        from repro.perf.scenarios import run_macro_scenario
        name = spec[len("perf:"):]
        return lambda observatory: run_macro_scenario(
            name, observatory=observatory)
    return resolve_scenario(spec)


class DispatchProbe:
    """Record every dispatch of every Simulator built inside ``with``.

    Patches ``Simulator.__init__`` (KernelTally-style) to install an
    instance-level ``step`` wrapper that logs the scheduler's next
    entry — via the queue-neutral ``peek_entry()`` — before stepping.
    With ``digest=True`` the lines fold into a sha256 as they stream;
    otherwise they are kept for context reporting.
    """

    def __init__(self, digest=False):
        self.lines = [] if not digest else None
        self._hash = hashlib.sha256()
        self.count = 0
        self._original = None

    def __enter__(self):
        self._original = kernel.Simulator.__init__
        probe = self
        original = self._original

        def probed_init(sim, *args, **kwargs):
            original(sim, *args, **kwargs)
            original_step = sim.step

            def probed_step():
                entry = sim.peek_entry()
                line = "%r %r %r %s" % (entry[0], entry[1], entry[2],
                                        type(entry[3]).__name__)
                probe.count += 1
                if probe.lines is not None:
                    probe.lines.append(line)
                else:
                    probe._hash.update(line.encode("utf-8"))
                    probe._hash.update(b"\n")
                original_step()

            sim.step = probed_step

        kernel.Simulator.__init__ = probed_init
        return self

    def __exit__(self, *exc_info):
        kernel.Simulator.__init__ = self._original
        return False

    def witness(self):
        """``(comparable, count)``: lines, or the streamed digest."""
        if self.lines is not None:
            return list(self.lines), self.count
        return [self._hash.hexdigest()], self.count


class StopProbe:
    """Record the outcome of every ``Simulator.run`` inside ``with``.

    Wraps ``run`` on the class, so — unlike :class:`DispatchProbe` —
    nothing lands in an instance ``__dict__`` and every kind keeps its
    own dispatch loop.
    """

    def __init__(self):
        self.lines = []
        self._original = None

    def __enter__(self):
        self._original = original = kernel.Simulator.run
        lines = self.lines

        def probed_run(sim, until=None):
            stop = ("event:%s" % type(until).__name__
                    if isinstance(until, Event) else repr(until))
            try:
                return original(sim, until)
            except BaseException as exc:
                stop += " raised %s" % type(exc).__name__
                raise
            finally:
                head = sim.peek_entry()
                lines.append("%s now=%r dispatched=%d next=%s" % (
                    stop, sim.now, sim.dispatched,
                    head if head is None else "%r %r %r %s" % (
                        head[0], head[1], head[2],
                        type(head[3]).__name__)))

        kernel.Simulator.run = probed_run
        return self

    def __exit__(self, *exc_info):
        kernel.Simulator.run = self._original
        return False


def capture_stops(spec, kind, pooling=None):
    """Stops-tier witness (probe-free loops) under ``kind`` × ``pooling``."""
    run = resolve(spec)
    with use_kind(kind), _pooling_ctx(pooling), StopProbe() as probe:
        run(observatory=None)
    return list(probe.lines), len(probe.lines)


def capture_dispatches(spec, kind, digest=False, pooling=None):
    """Dispatch-tier witness of ``spec`` under ``kind`` × ``pooling``.

    ``pooling`` None leaves the session default in place; otherwise it
    names a registered pooling kind (including the planted-bug pools
    of ``broken_pools.py``).
    """
    run = resolve(spec)
    with use_kind(kind), _pooling_ctx(pooling), \
            DispatchProbe(digest=digest) as probe:
        run(observatory=None)
    return probe.witness()


def capture_obs_timeline(spec, kind, pooling=None):
    """Timeline-tier witness (fast-path run) under ``kind`` × ``pooling``."""
    from repro.obs import Observatory
    run = resolve(spec)
    with use_kind(kind), _pooling_ctx(pooling):
        observatory = Observatory()
        run(observatory=observatory)
        events = [dict(event.to_row())
                  for event in observatory.trace.events]
    lines = [_canonical(event) for event in events]
    return lines, len(lines)


def capture_metrics(spec, kind, pooling=None):
    """Metrics-tier witness (probe-free loops) under ``kind`` × ``pooling``."""
    from repro.obs import Observatory
    run = resolve(spec)
    with use_kind(kind), _pooling_ctx(pooling):
        observatory = Observatory()
        run(observatory=observatory)
    lines = [_canonical(row) for row in observatory.metrics.rows()]
    return lines, len(lines)


@dataclass
class DifferentialReport:
    """Outcome of one scenario × tier comparison across queue kinds."""

    scenario: str
    kinds: tuple
    tier: str
    identical: bool
    events_a: int
    events_b: int
    first_divergence: int = None
    context_a: list = field(default_factory=list)
    context_b: list = field(default_factory=list)

    def format(self):
        label = "%s [%s]" % (self.scenario, self.tier)
        versus = " vs ".join(self.kinds)
        if self.identical:
            return ("queue-differential %s: %d events byte-identical "
                    "(%s)" % (label, self.events_a, versus))
        lines = [
            "queue-differential %s: DIVERGENCE at event %s (%s)"
            % (label, self.first_divergence, versus),
            "  %s: %d events; %s: %d events"
            % (self.kinds[0], self.events_a, self.kinds[1],
               self.events_b),
            "  --- %s context ---" % self.kinds[0],
        ]
        lines += ["  " + line for line in self.context_a]
        lines.append("  --- %s context ---" % self.kinds[1])
        lines += ["  " + line for line in self.context_b]
        return "\n".join(lines)


def _compare(scenario, kinds, tier, a, b, context):
    (lines_a, count_a), (lines_b, count_b) = a, b
    index, ctx_a, ctx_b = compare_timelines(lines_a, lines_b,
                                            context=context)
    # In digest mode the "lines" are one hexdigest each, so a
    # divergence index is meaningless; keep the honest event counts.
    identical = index is None and count_a == count_b
    return DifferentialReport(
        scenario=scenario if isinstance(scenario, str)
        else getattr(scenario, "__name__", repr(scenario)),
        kinds=kinds, tier=tier, identical=identical,
        events_a=count_a, events_b=count_b,
        first_divergence=None if identical else index,
        context_a=[] if identical else ctx_a,
        context_b=[] if identical else ctx_b)


def diff_scenario(spec, kinds=DEFAULT_KINDS, tiers=DEFAULT_TIERS,
                  context=3, digest=False, poolings=None):
    """Run ``spec`` under each kind × pooling cell; compare per tier.

    Returns a list of :class:`DifferentialReport`, one per tier, each
    comparing the first cell (the reference) against every other cell
    pairwise — stopping a tier at its first diverging cell.

    ``poolings`` None compares queue kinds under the session-default
    pooling, with plain kind labels (the original behaviour).  A tuple
    of pooling kinds widens the comparison to the full grid, with
    cells labelled ``kind/mode`` (e.g. ``calendar/on``).
    """
    if poolings is None:
        cells = [(kind, None, kind) for kind in kinds]
    else:
        cells = [(kind, pooling, "%s/%s" % (kind, pooling))
                 for kind in kinds for pooling in poolings]
    reports = []
    for tier in tiers:
        if tier == "dispatch":
            capture = lambda kind, pooling: capture_dispatches(  # noqa: E731
                spec, kind, digest=digest, pooling=pooling)
        elif tier == "timeline":
            capture = lambda kind, pooling: capture_obs_timeline(  # noqa: E731
                spec, kind, pooling=pooling)
        elif tier == "stops":
            capture = lambda kind, pooling: capture_stops(  # noqa: E731
                spec, kind, pooling=pooling)
        elif tier == "metrics":
            capture = lambda kind, pooling: capture_metrics(  # noqa: E731
                spec, kind, pooling=pooling)
        else:
            raise ValueError("unknown tier %r" % (tier,))
        ref_kind, ref_pooling, ref_label = cells[0]
        reference = capture(ref_kind, ref_pooling)
        for kind, pooling, label in cells[1:]:
            report = _compare(spec, (ref_label, label), tier, reference,
                              capture(kind, pooling), context)
            reports.append(report)
            if not report.identical:
                break
    return reports


def main(argv=None):
    """Script entry point for the CI smoke job.  Exit 0 iff identical."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="differential",
        description="Byte-compare dispatch schedules across queue kinds")
    parser.add_argument("--scenario", action="append", default=None,
                        help="obs:<n> | faults:<n> | mod:<m>:<f> | "
                             "perf:<n>; repeatable "
                             "(default: obs:trickle)")
    parser.add_argument("--queue", action="append", default=None,
                        help="queue kinds to compare, first is the "
                             "reference (default: heap calendar); "
                             "'plain' is the heap behind the kernel's "
                             "plain step() loop")
    parser.add_argument("--pooling", action="append", default=None,
                        help="pooling kinds (repro.sim.pool) to sweep; "
                             "repeatable, widening the comparison to "
                             "the kind x pooling grid (default: the "
                             "session default mode only)")
    parser.add_argument("--tier", action="append", default=None,
                        choices=TIERS,
                        help="witness tiers to run (default: dispatch "
                             "and timeline; stops is the event-stopped "
                             "mode, metrics the exported metric rows)")
    parser.add_argument("--digest", action="store_true",
                        help="stream dispatch lines into a sha256 "
                             "(for fleet-scale scenarios)")
    parser.add_argument("--context", type=int, default=3)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    register_plain_kind()
    scenarios = args.scenario or ["obs:trickle"]
    kinds = tuple(args.queue or DEFAULT_KINDS)
    tiers = tuple(args.tier or DEFAULT_TIERS)
    poolings = tuple(args.pooling) if args.pooling else None
    failed = False
    for spec in scenarios:
        for report in diff_scenario(spec, kinds=kinds, tiers=tiers,
                                    context=args.context,
                                    digest=args.digest,
                                    poolings=poolings):
            if args.json:
                print(json.dumps({
                    "scenario": report.scenario,
                    "tier": report.tier,
                    "kinds": list(report.kinds),
                    "identical": report.identical,
                    "events": [report.events_a, report.events_b],
                    "first_divergence": report.first_divergence,
                }, sort_keys=True))
            else:
                print(report.format())
            failed = failed or not report.identical
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
