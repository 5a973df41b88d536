"""The simulation kernel: a pluggable event queue and the run loop."""

from heapq import heappop
from itertools import count

from repro.obs.observatory import NULL_OBS
from repro.sim.events import (
    AllOf, AnyOf, Event, Timeout, URGENT, _PENDING, _RECYCLED)
from repro.sim.pool import EventPool, FREE_LIST_CAP, make_pool
from repro.sim.process import Process
from repro.sim.queue import CalendarQueue, HeapQueue, make_queue


class Simulator:
    """A deterministic discrete-event simulator.

    Time is a float in seconds.  Events are executed in
    ``(time, priority, insertion order)`` order, so identical inputs
    always produce identical schedules.

    ``queue`` selects the scheduler (:mod:`repro.sim.queue`): a kind
    name (``"heap"``, ``"calendar"``), an already-built queue object,
    or None for the module default.  Every scheduler honors the same
    total order, which the differential harness and the golden
    timeline digests enforce — so the choice affects speed, never the
    schedule.

    ``obs`` is the observability hook (:mod:`repro.obs`): the null
    observatory by default, replaced by ``Observatory(sim)`` when a
    run is instrumented.  Observation never schedules events, so it
    cannot perturb the schedule.

    ``pooling`` selects the object-pool kind (:mod:`repro.sim.pool`):
    ``"on"``, ``"off"``, a registered kind name, a factory, or None
    for the module default (``REPRO_POOL``).  Pools are
    schedule-identical by construction — every allocation primitive
    consumes the same sequence numbers at the same program points as
    direct allocation — which the differential harness's kind ×
    pooling grid verifies per dispatch.
    """

    def __init__(self, start_time=0.0, queue=None, pooling=None):
        self.now = float(start_time)
        self._queue = make_queue(queue, self.now)
        # Bound once: the trigger sites in events.py/process.py push
        # through this to reach the scheduler without a second
        # attribute hop per event.
        self._push = self._queue.push
        #: The event/packet pool, or None when pooling is off.  Only
        #: the kernel and net layers may call its alloc/recycle
        #: primitives (lint rule SIM002).
        self._pool = make_pool(pooling, self)
        self._sequence = count()
        self._active_process = None
        self.obs = NULL_OBS
        #: Events dispatched over this simulator's lifetime.  A plain
        #: integer (not an obs metric) so ``repro perf`` can compute
        #: events/sec on uninstrumented runs at one-add-per-event cost.
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

    def timeout(self, delay, value=None):
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay):
        """A transient delay event: yield it directly, never retain it.

        Pooled when pooling is on (recycled the moment it dispatches),
        a plain :class:`Timeout` otherwise — either way the schedule
        tuple is identical.  Use :meth:`timeout` instead whenever the
        event is stored, composed (``any_of``/``all_of``), or
        inspected after it fires: a slept-on event is dead once the
        sleeper resumes.
        """
        pool = self._pool
        if pool is not None:
            return pool.sleep(delay)
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

    def kill_owned(self, owner, cause=None):
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
                proc.interrupt(cause)
                killed += 1
        return killed

    def any_of(self, events):
        """Event that fires when any of ``events`` does."""
        return AnyOf(self, events)

    def all_of(self, events):
        """Event that fires when all of ``events`` have."""
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling internals

    def _schedule_event(self, event, priority, delay=0.0):
        self._push((self.now + delay, priority, next(self._sequence), event))

    def _call_soon(self, callback, *args):
        pool = self._pool
        if pool is not None:
            pool.stub(lambda _evt: callback(*args))
            return
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
            # fast loops in run() leave the same rows behind without
            # the per-dispatch calls.
            obs.metrics.counter("sim.events_dispatched").inc()
            obs.metrics.gauge("sim.queue_depth").set(len(self._queue))
        event._process()
        if event._recycle:
            self._pool.recycle(event)

    def _settle_watcher(self, obs, own_clock, seen, last_when,
                        depth, low, high):
        """Land a fast loop's locally kept kernel metrics on ``obs``.

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

    def peek(self):
        """Time of the next scheduled event, or None if the queue is empty."""
        return self._queue.peek_when()

    def peek_entry(self):
        """The next ``(when, prio, seq, event)`` entry, or None if empty.

        Read-only; the spec schedule probe logs ``entry[:3]`` from here
        so it works against any scheduler, not just the heap.
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
            # A pooled stop event must survive dispatch un-reset: its
            # ``_value`` is read after the loop.  Un-marking it simply
            # leaks the object to the garbage collector.
            stop_event._recycle = False
            # Event-stopped runs use the same loops as timed ones: no
            # deadline, and a break right after the stop event's own
            # dispatch.  No loop admits an entry before -inf, so an
            # already-processed event dispatches nothing.
            deadline = float("-inf" if stop_event._processed else "inf")
        else:
            deadline = float("inf") if until is None else float(until)
        queue_obj = self._queue
        pool = self._pool
        # Bound once per run: the recycle hook in the loops below costs
        # one slot load and a predictable branch per dispatch.  Only
        # pool primitives ever set ``_recycle``, so ``recycle`` cannot
        # be None when the branch is taken.  The fast loops inline the
        # recycle body (one call frame per transient event is the
        # difference between pooling winning and losing on fleet-64);
        # a pool subclass that overrides ``recycle`` — the planted-bug
        # fixtures do — keeps the call instead.  ``pool.recycle`` is
        # the readable reference semantics for the inlined block.
        recycle = None if pool is None else pool.recycle
        if pool is not None and type(pool).recycle is EventPool.recycle:
            free_events = pool._free_events
            free_timeouts = pool._free_timeouts
        else:
            free_events = free_timeouts = None
        kind = type(queue_obj)
        if "step" in self.__dict__ or kind not in (HeapQueue, CalendarQueue):
            # The plain loop, ``step()`` per event through nothing but
            # the documented queue interface.  An instance-level step
            # override (the obs schedule probe wraps it to log every
            # dispatch) must keep seeing each event, and an externally
            # supplied scheduler (including the deliberately broken
            # ones under the differential harness) allows no
            # structural assumptions.
            peek_when = queue_obj.peek_when
            while True:
                upcoming = peek_when()
                if upcoming is None or upcoming > deadline:
                    break
                self.step()
                if stop_event is not None and stop_event._processed:
                    break
        elif kind is HeapQueue:
            # Fast path: step() inlined over the reference heap.
            # Locals for the heap list and heappop save a method call
            # plus several attribute loads per event — the single
            # hottest loop in fleet-scale runs.
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
                    if event._recycle:
                        if free_timeouts is not None:
                            # pool.recycle(event), inlined — see that
                            # method for the commented reference
                            # semantics.
                            if event.callbacks:
                                event.callbacks.clear()
                            event._value = _RECYCLED
                            event._ok = None
                            event._processed = False
                            event._defused = False
                            event._recycle = False
                            event._gen += 1
                            cls = type(event)
                            if cls is Timeout:
                                event._pending_value = None
                                if len(free_timeouts) < FREE_LIST_CAP:
                                    pool.recycled += 1
                                    free_timeouts.append(event)
                                else:
                                    pool.dropped += 1
                            elif cls is Event:
                                if len(free_events) < FREE_LIST_CAP:
                                    pool.recycled += 1
                                    free_events.append(event)
                                else:
                                    pool.dropped += 1
                            else:
                                pool.dropped += 1
                        else:
                            recycle(event)
                    elif event is stop_event:
                        break
            finally:
                self.dispatched += done
                if watcher is not None:
                    self._settle_watcher(watcher, own_clock, seen,
                                         last_when, depth, low, high)
        else:
            # Fast path: step() inlined over the calendar queue.  The
            # at-instant FIFO lanes need no deadline check inside the
            # loop: every lane entry is due at ``_instant``, and
            # ``_advance`` only ever moves the instant to a time at or
            # before the deadline.  A lane left over from a previous
            # ``run(until=Event)`` stop can sit *beyond* this call's
            # deadline, which the one-time guard catches — the heap
            # path dispatches nothing in that situation either.
            urgent = queue_obj._urgent
            normal = queue_obj._normal
            pop_urgent = urgent.popleft
            pop_normal = normal.popleft
            advance = queue_obj._advance
            overflow = queue_obj._overflow
            done = 0
            watcher = None
            own_clock = False
            seen = depth = low = high = 0
            last_when = 0.0
            live = not ((urgent or normal) and queue_obj._instant > deadline)
            try:
                while live:
                    if urgent:
                        when, _prio, _seq, event = pop_urgent()
                    elif normal:
                        when, _prio, _seq, event = pop_normal()
                    else:
                        entry = advance(deadline)
                        if entry is None:
                            break
                        when = entry[0]
                        event = entry[3]
                    self.now = when
                    done += 1
                    obs = self.obs
                    if obs.enabled:
                        # len(queue_obj), inlined: the rung list is
                        # replaced on refill, so it is read each time.
                        pending = (len(urgent) + len(normal)
                                   + len(queue_obj._ready)
                                   - queue_obj._ready_pos
                                   + queue_obj._future + len(overflow))
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
                    if event._recycle:
                        if free_timeouts is not None:
                            # pool.recycle(event), inlined — see that
                            # method for the commented reference
                            # semantics.
                            if event.callbacks:
                                event.callbacks.clear()
                            event._value = _RECYCLED
                            event._ok = None
                            event._processed = False
                            event._defused = False
                            event._recycle = False
                            event._gen += 1
                            cls = type(event)
                            if cls is Timeout:
                                event._pending_value = None
                                if len(free_timeouts) < FREE_LIST_CAP:
                                    pool.recycled += 1
                                    free_timeouts.append(event)
                                else:
                                    pool.dropped += 1
                            elif cls is Event:
                                if len(free_events) < FREE_LIST_CAP:
                                    pool.recycled += 1
                                    free_events.append(event)
                                else:
                                    pool.dropped += 1
                            else:
                                pool.dropped += 1
                        else:
                            recycle(event)
                    elif event is stop_event:
                        break
            finally:
                self.dispatched += done
                if watcher is not None:
                    self._settle_watcher(watcher, own_clock, seen,
                                         last_when, depth, low, high)
        if pool is not None and self.obs.enabled:
            pool.publish(self.obs.metrics)
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
