"""Generator-based simulation processes."""

from repro.sim.events import Event, Interrupt, URGENT, _PENDING


class Process(Event):
    """A running generator coroutine inside the simulation.

    A process yields :class:`~repro.sim.events.Event` objects and is
    resumed with the event's value when it triggers (or has the event's
    exception thrown into it when it fails).  The process is itself an
    event that triggers with the generator's return value, so processes
    can wait on each other.
    """

    __slots__ = ("_generator", "name", "_target", "_send", "_on_target")

    def __init__(self, sim, generator, name=None):
        super().__init__(sim)
        self._generator = generator
        # Pre-bound: generator.send and self._resume each allocate a
        # fresh bound method per attribute fetch, and _resume needs
        # both once per process step.
        self._send = generator.send
        self._on_target = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        self._target = None
        # An inlined bootstrap.succeed(): the stub is born triggered,
        # skipping the already-triggered guard of the public method.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._on_target)
        bootstrap._ok = True
        bootstrap._value = None
        # sim._schedule_event(bootstrap, URGENT) inlined; the tuple
        # pushed is byte-identical.
        sim._push((sim.now, URGENT, next(sim._sequence), bootstrap))

    @property
    def is_alive(self):
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a finished process is a no-op.  The event the
        process was waiting on (if any) keeps running; the process
        simply stops waiting for it.
        """
        if self.triggered:
            return
        if self._target is not None:
            self._target.unsubscribe(self._on_target)
            self._target = None
        sim = self.sim
        kick = Event(sim)
        kick.callbacks.append(self._on_target)
        kick._ok = False
        kick._value = Interrupt(cause)
        kick._defused = True
        # sim._schedule_event(kick, URGENT) inlined; the tuple pushed
        # is byte-identical.
        sim._push((sim.now, URGENT, next(sim._sequence), kick))

    def _resume(self, event):
        if self._value is not _PENDING:   # i.e. self.triggered
            # A late interrupt kick can arrive after the process already
            # finished (e.g. a failure cascaded into it first during a
            # mass kill); there is nothing left to resume.
            event.defuse()
            return
        self._target = None
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                event.defuse()
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            error = RuntimeError(
                "process %r yielded %r, which is not an Event"
                % (self.name, target))
            self._generator.close()
            self.fail(error)
            return
        self._target = target
        # target.subscribe(self._resume), inlined: this is the single
        # hottest subscription site (once per process step).
        if target._processed:
            self.sim._call_soon(self._on_target, target)
        else:
            target.callbacks.append(self._on_target)

    def __repr__(self):
        return "<Process %s %s>" % (
            self.name, "alive" if self.is_alive else "done")
