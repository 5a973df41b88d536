"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence with a value.  Processes
wait on events by yielding them; other code triggers them with
:meth:`Event.succeed` or :meth:`Event.fail`.
"""

_PENDING = object()

# Scheduling priorities: urgent events (process resumption bookkeeping)
# run before normal events that fire at the same instant.
URGENT = 0
NORMAL = 1


class Interrupt(Exception):
    """Raised inside a process that has been interrupted.

    The interrupting party may supply a cause explaining why (for
    example, "link went down") as the exception's argument.
    """


class Event:
    """A one-shot occurrence in simulated time.

    Events move through three phases: *pending* (created), *triggered*
    (value decided, callbacks scheduled), and *processed* (callbacks
    ran).  Callbacks added after processing are delivered immediately
    (at the current simulation instant) so late subscribers never hang.

    ``__slots__`` throughout the event hierarchy: fleet-scale runs
    create millions of events, and slot storage shaves both per-event
    memory and attribute-access time on the kernel's hottest path.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed",
                 "_defused")

    def __init__(self, sim):
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._processed = False
        self._defused = False

    @property
    def triggered(self):
        """True once the event's outcome (value or failure) is decided."""
        return self._value is not _PENDING

    @property
    def value(self):
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise RuntimeError("event value not yet available")
        return self._value

    def succeed(self, value=None):
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError("event already triggered")
        self._ok = True
        self._value = value
        # sim._schedule_event(self, URGENT) inlined — the hottest
        # trigger site; the tuple pushed is byte-identical.  sim._push
        # is the queue's bound push (C ``heappush`` on the heap).
        sim = self.sim
        sim._push((sim.now, URGENT, next(sim._sequence), self))
        return self

    def fail(self, exception):
        """Trigger the event with a failure carried by ``exception``."""
        if self._value is not _PENDING:
            raise RuntimeError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._schedule_event(self, URGENT)
        return self

    def defuse(self):
        """Mark a failure as handled so the kernel will not re-raise it."""
        self._defused = True

    def subscribe(self, callback):
        """Arrange for ``callback(event)`` once the event is processed."""
        if self._processed:
            self.sim._call_soon(callback, self)
        else:
            self.callbacks.append(callback)

    def unsubscribe(self, callback):
        """Remove a previously subscribed callback, if still pending."""
        try:
            self.callbacks.remove(callback)
        except ValueError:
            pass

    def _process(self):
        self._processed = True
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)
        if self._ok is False and not self._defused:
            raise UnhandledFailure(self._value)

    def __repr__(self):
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return "<%s %s at %#x>" % (type(self).__name__, state, id(self))


class UnhandledFailure(Exception):
    """An event failed and no process was waiting to observe it."""


class Timeout(Event):
    """An event that succeeds ``delay`` time units after creation.

    The value is decided up front but the event only *triggers* when
    its time arrives — before that, ``triggered`` is False like any
    other pending event.
    """

    __slots__ = ("delay", "_pending_value")

    def __init__(self, sim, delay, value=None):
        if delay < 0:
            raise ValueError("negative delay: %r" % (delay,))
        # Event.__init__ inlined: timeouts are the most-created event
        # type (one per packet delivery, CPU slice, and daemon tick),
        # so the extra method call is worth flattening away.
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._processed = False
        self._defused = False
        self.delay = delay
        self._pending_value = value
        # sim._schedule_event(self, NORMAL, delay=delay) inlined; the
        # tuple pushed is byte-identical.
        sim._push((sim.now + delay, NORMAL, next(sim._sequence), self))

    def _process(self):
        # Event._process inlined; a timeout cannot fail, so the
        # unhandled-failure check is dropped too.
        self._ok = True
        self._value = self._pending_value
        self._processed = True
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)


class At(Timeout):
    """A :class:`Timeout` set for the absolute instant ``when``.

    For a caller that has already computed the instant, such as an
    analytic FIFO resource's finish time: ``Timeout(sim, when - now)``
    would fire at ``now + (when - now)``, which need not be the same
    float as ``when``.
    """

    __slots__ = ()

    def __init__(self, sim, when, value=None):
        now = sim.now
        if when < now:
            raise ValueError("instant %r is before now (%r)" % (when, now))
        # Timeout.__init__ with the absolute instant pushed as is.
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._processed = False
        self._defused = False
        self.delay = when - now
        self._pending_value = value
        sim._push((when, NORMAL, next(sim._sequence), self))


class AnyOf(Event):
    """Succeeds when any child event succeeds; fails if a child fails.

    Its value is ``{event: value}`` over the children that had
    succeeded by then; with no children it succeeds at once with ``{}``.
    """

    __slots__ = ("_events",)

    def __init__(self, sim, events):
        super().__init__(sim)
        self._events = list(events)
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            event.subscribe(self._on_child)

    def _on_child(self, event):
        if self._value is not _PENDING:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self.succeed({e: e._value for e in self._events
                      if e.triggered and e._ok})
