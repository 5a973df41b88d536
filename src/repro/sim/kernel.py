"""The simulation kernel: the event queue and the run loop."""

from heapq import heappop
from itertools import count

from repro.obs.observatory import NULL_OBS
from repro.sim.events import AnyOf, Event, Timeout, URGENT, _PENDING
from repro.sim.process import Process
from repro.sim.queue import HeapQueue


class Simulator:
    """A deterministic discrete-event simulator.

    Time is a float in seconds.  Events are executed in
    ``(time, priority, insertion order)`` order, so identical inputs
    always produce identical schedules.

    ``queue`` is the test seam: an already-built queue object with
    :class:`~repro.sim.queue.HeapQueue`'s interface, dispatched through
    the ``step()`` reference loop.  Production code passes nothing and
    gets a ``HeapQueue`` behind the inlined loop of :meth:`run`.

    ``obs`` is the observability hook (:mod:`repro.obs`): the null
    observatory by default, replaced by ``Observatory(sim)`` when a
    run is instrumented.  Observation never schedules events, so it
    cannot perturb the schedule.
    """

    def __init__(self, start_time=0.0, queue=None):
        self.now = float(start_time)
        self._queue = HeapQueue() if queue is None else queue
        # Bound once: the trigger sites in events.py/process.py push
        # through this to reach the queue without a second attribute
        # hop per event.
        self._push = self._queue.push
        self._sequence = count()
        self.obs = NULL_OBS
        #: Events dispatched over this simulator's lifetime.  A plain
        #: integer (not an obs metric) so uninstrumented runs are
        #: counted too (the count ledger) at one-add-per-event cost.
        self.dispatched = 0
        # Named deterministic random streams (repro.sim.rand), attached
        # by the testbed builder so subsystems (e.g. fault injection)
        # can draw from isolated per-component streams.
        self.rand = None
        self._owned = {}    # owner -> [Process]; for crash-style kills

    # ------------------------------------------------------------------
    # Factories

    def event(self):
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def sleep(self, delay):
        """An event that fires ``delay`` seconds from now, no value."""
        return Timeout(self, delay)

    def process(self, generator, name=None, owner=None):
        """Start ``generator`` as a new :class:`Process`.

        ``owner`` optionally tags the process as belonging to a named
        component (a node, typically) so :meth:`kill_owned` can destroy
        everything that component was running — the crash model's "the
        process and all its volatile state vanish" primitive.
        """
        proc = Process(self, generator, name=name)
        if owner is not None:
            # Prune finished processes so long runs don't accumulate.
            # (p._value is _PENDING) is is_alive with the property
            # machinery skipped — this scan runs per process created.
            alive = [p for p in self._owned.get(owner, ())
                     if p._value is _PENDING]
            alive.append(proc)
            self._owned[owner] = alive
        return proc

    def kill_owned(self, owner):
        """Interrupt every live process tagged with ``owner``.

        Each victim is defused first: a killed process fails with
        :class:`Interrupt`, and nobody is expected to be watching a
        process that just ceased to exist.  Returns the kill count.
        """
        procs = self._owned.pop(owner, [])
        killed = 0
        for proc in procs:
            if proc.is_alive:
                proc.defuse()
                proc.interrupt()
                killed += 1
        return killed

    def any_of(self, events):
        """Event that fires when any of ``events`` does."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling internals

    def _schedule_event(self, event, priority, delay=0.0):
        self._push((self.now + delay, priority, next(self._sequence), event))

    def _call_soon(self, callback, *args):
        # An inlined stub.succeed(): the stub is born triggered.
        stub = Event(self)
        stub.callbacks.append(lambda _evt: callback(*args))
        stub._ok = True
        stub._value = None
        self._schedule_event(stub, URGENT)

    # ------------------------------------------------------------------
    # Execution

    def step(self):
        """Process the single next event.  Raises IndexError if empty."""
        when, _prio, _seq, event = self._queue.pop()
        self.now = when
        self.dispatched += 1
        obs = self.obs
        if obs.enabled:
            # The reference semantics of the two kernel metrics; the
            # fast loop in run() leaves the same rows behind without
            # the per-dispatch calls.
            obs.metrics.counter("sim.events_dispatched").inc()
            obs.metrics.gauge("sim.queue_depth").set(len(self._queue))
        event._process()

    def _settle_watcher(self, obs, own_clock, seen, last_when,
                        depth, low, high):
        """Land the fast loop's locally kept kernel metrics on ``obs``.

        ``seen`` dispatches were observed by ``obs``, the last at
        ``last_when`` with ``depth`` entries pending, the run's depths
        spanning ``low``..``high`` — exactly what step()'s inc() and
        set() per dispatch would have left behind.  An observatory on
        another simulator's clock (``own_clock`` false) stamps with
        that clock, read now: it cannot have moved unless a callback
        ran that simulator from inside this loop.
        """
        stamp = last_when if own_clock else obs.time()
        metrics = obs.metrics
        metrics.counter("sim.events_dispatched").absorb(seen, stamp)
        metrics.gauge("sim.queue_depth").absorb(depth, low, high, stamp)

    def peek_entry(self):
        """The next ``(when, prio, seq, event)`` entry, or None if empty.

        Read-only; the spec schedule probe logs ``entry[:3]`` from here.
        """
        return self._queue.peek_entry()

    def run(self, until=None):
        """Run events until the queue drains or ``until`` is reached.

        ``until`` may be a number (absolute simulation time) or an
        :class:`Event`; in the latter case the loop stops as soon as the
        event has been processed and returns its value.
        """
        stop_event = None
        if isinstance(until, Event):
            stop_event = until
            # The caller observes this event's outcome (we re-raise
            # failures below), so it never counts as unhandled.
            stop_event.defuse()
            # Event-stopped runs use the same loops as timed ones: no
            # deadline, and a break right after the stop event's own
            # dispatch.  No loop admits an entry before -inf, so an
            # already-processed event dispatches nothing.
            deadline = float("-inf" if stop_event._processed else "inf")
        else:
            deadline = float("inf") if until is None else float(until)
        queue_obj = self._queue
        if "step" in self.__dict__ or type(queue_obj) is not HeapQueue:
            # The reference loop, ``step()`` per event through nothing
            # but the documented queue interface.  An instance-level
            # step override (the spec schedule probe wraps it to log
            # every dispatch) must keep seeing each event, and an
            # injected queue object (the differential harness plants
            # deliberately broken ones) allows no structural
            # assumptions.
            peek_when = queue_obj.peek_when
            while True:
                upcoming = peek_when()
                if upcoming is None or upcoming > deadline:
                    break
                self.step()
                if stop_event is not None and stop_event._processed:
                    break
        else:
            # Fast path: step() inlined over the heap.  Locals for the
            # heap list and heappop save a method call plus several
            # attribute loads per event — the single hottest loop in
            # fleet-scale runs.
            queue = queue_obj._heap
            pop = heappop
            done = 0
            # ``dispatched`` accumulates in a local and lands on the
            # instance when the loop exits (even via an unhandled
            # failure) — nothing may read it mid-loop from inside an
            # event callback.  The two kernel metrics work the same
            # way: what step() does with an inc() and a set() per
            # dispatch is kept here in ``seen``/``last_when`` and
            # ``depth``/``low``/``high`` for the observatory in
            # ``watcher``, and _settle_watcher() lands it when the loop
            # exits or meets a different observatory.
            watcher = None
            own_clock = False
            seen = depth = low = high = 0
            last_when = 0.0
            try:
                while queue and queue[0][0] <= deadline:
                    when, _prio, _seq, event = pop(queue)
                    self.now = when
                    done += 1
                    obs = self.obs
                    if obs.enabled:
                        pending = len(queue)
                        if obs is not watcher:
                            if watcher is not None:
                                self._settle_watcher(
                                    watcher, own_clock, seen, last_when,
                                    depth, low, high)
                            watcher = obs
                            own_clock = obs.clocked_by(self)
                            seen = 0
                            low = high = pending
                        seen += 1
                        last_when = when
                        depth = pending
                        if depth < low:
                            low = depth
                        elif depth > high:
                            high = depth
                    event._process()
                    if event is stop_event:
                        break
            finally:
                self.dispatched += done
                if watcher is not None:
                    self._settle_watcher(watcher, own_clock, seen,
                                         last_when, depth, low, high)
        if stop_event is not None:
            if not stop_event._processed:
                raise RuntimeError(
                    "simulation ran dry before %r triggered" % (until,))
            if stop_event._ok is False:
                raise stop_event._value
            return stop_event._value
        if until is not None:
            self.now = max(self.now, deadline)
        return None

    def __repr__(self):
        return "<Simulator t=%.6f queued=%d>" % (self.now, len(self._queue))
