"""Synchronization and queueing primitives built on events."""

from collections import deque

from repro.sim.events import Event, URGENT, _PENDING


class Lock:
    """A FIFO mutex for simulation processes.

    Usage::

        yield lock.acquire()
        try:
            ...
        finally:
            lock.release()
    """

    def __init__(self, sim):
        self.sim = sim
        self._locked = False
        self._waiters = deque()

    def acquire(self):
        """Return an event that fires once the lock is held by the caller."""
        sim = self.sim
        event = Event(sim)
        if not self._locked:
            self._locked = True
            # An inlined event.succeed(): an uncontended grant is born
            # triggered, as Process's bootstrap is.
            event._ok = True
            event._value = None
            # repro: allow[SIM001] the byte-identical tuple succeed() pushes
            sim._push((sim.now, URGENT, next(sim._sequence), event))
        else:
            self._waiters.append(event)
        return event

    def release(self):
        """Release the lock, waking the next waiter if any."""
        if not self._locked:
            raise RuntimeError("release of unlocked Lock")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._locked = False


class Store:
    """An unbounded FIFO channel of items between processes.

    ``put`` never blocks; ``get`` returns an event that fires with the
    next item (immediately if one is queued).
    """

    def __init__(self, sim):
        self.sim = sim
        self._items = deque()
        self._getters = deque()

    def put(self, item):
        """Deposit ``item``, waking the oldest waiting getter if any."""
        while self._getters:
            getter = self._getters.popleft()
            if getter._value is _PENDING:   # not yet triggered
                # An inlined getter.succeed(item), as in Lock.acquire.
                getter._ok = True
                getter._value = item
                sim = self.sim
                # repro: allow[SIM001] the byte-identical tuple succeed() pushes
                sim._push((sim.now, URGENT, next(sim._sequence), getter))
                return
        self._items.append(item)

    def get(self):
        """Return an event that fires with the next item."""
        sim = self.sim
        event = Event(sim)
        if self._items:
            # Born triggered with the oldest item: an inlined succeed().
            event._ok = True
            event._value = self._items.popleft()
            # repro: allow[SIM001] the byte-identical tuple succeed() pushes
            sim._push((sim.now, URGENT, next(sim._sequence), event))
        else:
            self._getters.append(event)
        return event

