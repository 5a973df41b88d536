"""Differential loop harness: prove the dispatch loops behave alike.

``Simulator.run`` has two loops: the inlined *fast* loop over the
kernel's own ``HeapQueue`` (what every production run uses) and the
*plain* loop, ``step()`` per event through the queue interface (what
an injected queue object or an instance-level ``step`` override gets).
``step()`` is the readable reference; this harness runs the *same*
scenario once per loop and byte-compares up to four witnesses:

* **dispatch tier** — every single dispatch, as the canonical line
  ``(when, priority, seq, event-class)``.  The probe remembers each
  entry as it is pushed and logs it as its event is processed, so
  nothing lands in ``step`` and each loop under test is the loop that
  runs.  A swapped tie, an out-of-order pop, an overrun deadline shows
  up at the exact event index where it happens — which is how the
  planted-bug queues of ``broken_queues.py`` are caught.
* **timeline tier** — the obs event timeline of a probe-free run.
* **stops tier** (the event-stopped mode; opt in with ``--tier
  stops``) — one line per ``Simulator.run`` call: how it was stopped
  (``event:<class>`` or the deadline), where the clock and the
  dispatch count landed, and the entry left at the head of the queue.
  A loop that overruns its stop event, stops one dispatch early, or
  reorders the same-instant remnant left queued for the next ``run``
  differs here at that very call.
* **metrics tier** (opt in with ``--tier metrics``) — one line per
  row of ``observatory.metrics.rows()`` after a probe-free run: value,
  min, max *and* ``last_update``.  The fast loop keeps the two kernel
  metrics (``sim.events_dispatched``, ``sim.queue_depth``) in locals
  and lands them once per run; ``step()`` does an ``inc()`` and a
  ``set()`` per dispatch, so this tier proves what the loop writes
  back is what the reference would have left behind.

A loop is selected by the queue object handed to ``Simulator(queue=)``
— the kernel's one test seam — injected by patching
``Simulator.__init__`` for the duration of a capture, the way
``DispatchProbe`` and ``repro.sim.KernelTally`` already do.

Scenario references are the tree's one grammar
(``repro.analysis.divergence.resolve_scenario``: a catalogue name or
``mod:<module>:<function>``), or a bare callable taking
``observatory=``.  Usable as a script for the CI ``loop-differential``
smoke job::

    PYTHONPATH=src python tests/sim/differential.py \
        --scenario trickle --scenario fleet-32 --digest

``--digest`` streams each dispatch line into a sha256 instead of
keeping it (fleet-scale runs dispatch millions of events); divergence
is still detected, just without the surrounding context lines.
"""

import hashlib
import json
from dataclasses import dataclass, field

from repro.analysis.divergence import compare_timelines, resolve_scenario
from repro.fleetd.executor import canonical, timeline_rows
from repro.sim import kernel
from repro.sim.events import Event, Timeout
from repro.sim.queue import HeapQueue

DEFAULT_TIERS = ("dispatch", "timeline")
TIERS = DEFAULT_TIERS + ("stops", "metrics")


class PlainHeapQueue(HeapQueue):
    """The kernel's heap, served by the plain ``step()`` loop.

    ``Simulator.run`` inlines its fast loop only for exactly
    ``HeapQueue``; any other type — this one included — goes through
    the documented queue interface alone.
    """

    __slots__ = ()


#: loop name -> factory of the queue object injected into every
#: Simulator built during a capture; None injects nothing, leaving the
#: kernel's own HeapQueue behind the fast loop.  ``broken_queues.py``
#: adds the planted-bug queues.
LOOPS = {"fast": None, "plain": PlainHeapQueue}
DEFAULT_LOOPS = ("fast", "plain")


class use_loop:
    """Build every Simulator inside ``with`` on the named loop."""

    def __init__(self, loop):
        try:
            self._factory = LOOPS[loop]
        except KeyError:
            raise ValueError("unknown loop %r (have %s)"
                             % (loop, ", ".join(sorted(LOOPS)))) from None
        self._original = None

    def __enter__(self):
        self._original = original = kernel.Simulator.__init__
        factory = self._factory
        if factory is not None:
            def injecting_init(sim, start_time=0.0, queue=None):
                original(sim, start_time,
                         factory() if queue is None else queue)

            kernel.Simulator.__init__ = injecting_init
        return self

    def __exit__(self, *exc_info):
        kernel.Simulator.__init__ = self._original
        return False


def resolve(spec):
    """The one resolver, plus bare callables (the synthetic scenarios)."""
    return spec if callable(spec) else resolve_scenario(spec)


class DispatchProbe:
    """Record every dispatch of every Simulator built inside ``with``.

    Patches ``Simulator.__init__`` (KernelTally-style) to wrap the
    instance's ``_push`` hook, remembering each entry under its event,
    and wraps ``_process`` on the two classes that define it to log the
    remembered entry as the event runs.  ``run`` cannot tell: no
    ``step`` override, so whichever loop is under test is the loop
    that dispatches.  With ``digest=True`` the lines fold into a sha256
    as they stream; otherwise they are kept for context reporting.
    """

    def __init__(self, digest=False):
        self.lines = [] if not digest else None
        self._hash = hashlib.sha256()
        self.count = 0
        self._entries = {}      # id(event) -> its queued entry
        self._originals = None

    def _log(self, event):
        entry = self._entries.pop(id(event))
        line = "%r %r %r %s" % (entry[0], entry[1], entry[2],
                                type(event).__name__)
        self.count += 1
        if self.lines is not None:
            self.lines.append(line)
        else:
            self._hash.update(line.encode("utf-8"))
            self._hash.update(b"\n")

    def __enter__(self):
        original_init = kernel.Simulator.__init__
        self._originals = (original_init, Event._process, Timeout._process)
        entries, log = self._entries, self._log

        def probed_init(sim, *args, **kwargs):
            original_init(sim, *args, **kwargs)
            push = sim._push

            def probed_push(entry):
                # Holding the entry keeps its event alive, so the id
                # stays unique until the dispatch pops it.
                entries[id(entry[3])] = entry
                push(entry)

            sim._push = probed_push

        def probed(process):
            def _process(event):
                log(event)
                process(event)
            return _process

        kernel.Simulator.__init__ = probed_init
        Event._process = probed(Event._process)
        Timeout._process = probed(Timeout._process)
        return self

    def __exit__(self, *exc_info):
        (kernel.Simulator.__init__, Event._process,
         Timeout._process) = self._originals
        return False

    def witness(self):
        """``(comparable, count)``: lines, or the streamed digest."""
        if self.lines is not None:
            return list(self.lines), self.count
        return [self._hash.hexdigest()], self.count


class StopProbe:
    """Record the outcome of every ``Simulator.run`` inside ``with``.

    Wraps ``run`` on the class, so nothing lands in an instance
    ``__dict__`` and each loop under test stays the loop that runs.
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


def capture_dispatches(spec, loop, digest=False):
    """Dispatch-tier witness of ``spec`` on ``loop``."""
    run = resolve(spec)
    with use_loop(loop), DispatchProbe(digest=digest) as probe:
        run(observatory=None)
    return probe.witness()


def capture_stops(spec, loop):
    """Stops-tier witness of ``spec`` on ``loop``."""
    run = resolve(spec)
    with use_loop(loop), StopProbe() as probe:
        run(observatory=None)
    return list(probe.lines), len(probe.lines)


def _observed(spec, loop):
    from repro.obs import Observatory
    run = resolve(spec)
    observatory = Observatory()
    with use_loop(loop):
        run(observatory=observatory)
    return observatory


def capture_obs_timeline(spec, loop):
    """Timeline-tier witness (probe-free run) of ``spec`` on ``loop``."""
    lines = [canonical(row) for row in timeline_rows(_observed(spec, loop))]
    return lines, len(lines)


def capture_metrics(spec, loop):
    """Metrics-tier witness (probe-free run) of ``spec`` on ``loop``."""
    lines = [canonical(row) for row in _observed(spec, loop).metrics.rows()]
    return lines, len(lines)


@dataclass
class DifferentialReport:
    """Outcome of one scenario × tier comparison between two loops."""

    scenario: str
    loops: tuple
    tier: str
    identical: bool
    events_a: int
    events_b: int
    first_divergence: int = None
    context_a: list = field(default_factory=list)
    context_b: list = field(default_factory=list)

    def format(self):
        label = "%s [%s]" % (self.scenario, self.tier)
        versus = " vs ".join(self.loops)
        if self.identical:
            return ("loop-differential %s: %d events byte-identical "
                    "(%s)" % (label, self.events_a, versus))
        lines = [
            "loop-differential %s: DIVERGENCE at event %s (%s)"
            % (label, self.first_divergence, versus),
            "  %s: %d events; %s: %d events"
            % (self.loops[0], self.events_a, self.loops[1],
               self.events_b),
            "  --- %s context ---" % self.loops[0],
        ]
        lines += ["  " + line for line in self.context_a]
        lines.append("  --- %s context ---" % self.loops[1])
        lines += ["  " + line for line in self.context_b]
        return "\n".join(lines)


def _compare(scenario, loops, tier, a, b, context):
    (lines_a, count_a), (lines_b, count_b) = a, b
    index, ctx_a, ctx_b = compare_timelines(lines_a, lines_b,
                                            context=context)
    # In digest mode the "lines" are one hexdigest each, so a
    # divergence index is meaningless; keep the honest event counts.
    identical = index is None and count_a == count_b
    return DifferentialReport(
        scenario=scenario if isinstance(scenario, str)
        else getattr(scenario, "__name__", repr(scenario)),
        loops=loops, tier=tier, identical=identical,
        events_a=count_a, events_b=count_b,
        first_divergence=None if identical else index,
        context_a=[] if identical else ctx_a,
        context_b=[] if identical else ctx_b)


def diff_scenario(spec, loops=DEFAULT_LOOPS, tiers=DEFAULT_TIERS,
                  context=3, digest=False):
    """Run ``spec`` on each loop; compare per tier.

    Returns a list of :class:`DifferentialReport`, one per tier and
    loop after the first, each comparing the first loop (the
    reference) against another — stopping a tier at its first
    diverging loop.
    """
    captures = {
        "dispatch": lambda loop: capture_dispatches(spec, loop,
                                                    digest=digest),
        "timeline": lambda loop: capture_obs_timeline(spec, loop),
        "stops": lambda loop: capture_stops(spec, loop),
        "metrics": lambda loop: capture_metrics(spec, loop),
    }
    reports = []
    for tier in tiers:
        try:
            capture = captures[tier]
        except KeyError:
            raise ValueError("unknown tier %r" % (tier,)) from None
        reference = capture(loops[0])
        for loop in loops[1:]:
            report = _compare(spec, (loops[0], loop), tier, reference,
                              capture(loop), context)
            reports.append(report)
            if not report.identical:
                break
    return reports


def main(argv=None):
    """Script entry point for the CI smoke job.  Exit 0 iff identical."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="differential",
        description="Byte-compare dispatch schedules across the "
                    "kernel's dispatch loops")
    parser.add_argument("--scenario", action="append", default=None,
                        help="<catalogue-name> | mod:<m>:<f>; "
                             "repeatable (default: trickle)")
    parser.add_argument("--loop", action="append", default=None,
                        help="loops to compare, first is the reference "
                             "(default: fast plain)")
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
    scenarios = args.scenario or ["trickle"]
    loops = tuple(args.loop or DEFAULT_LOOPS)
    tiers = tuple(args.tier or DEFAULT_TIERS)
    failed = False
    for spec in scenarios:
        for report in diff_scenario(spec, loops=loops, tiers=tiers,
                                    context=args.context,
                                    digest=args.digest):
            if args.json:
                print(json.dumps({
                    "scenario": report.scenario,
                    "tier": report.tier,
                    "loops": list(report.loops),
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
