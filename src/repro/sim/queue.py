"""The kernel's event queue: one binary heap of entry tuples.

An *entry* is ``(when, priority, seq, event)``.  Tuple order is the
dispatch order — the total order contract of DESIGN.md, "Kernel" — and
FIFO tie-breaking at identical ``(when, priority)`` is carried by the
monotone ``seq``.  The kernel never schedules into the past, so
``when`` is never below the time of the entry popped last.

``Simulator(queue=obj)`` accepts any object with this class's
interface; that is the seam the differential harness
(``tests/sim/differential.py``) uses to plant broken queues and to
route a run through the plain ``step()`` loop.
"""

from functools import partial
from heapq import heappop, heappush


class HeapQueue:
    """One binary heap (C ``heapq``).

    ``push``/``pop`` are bound ``functools.partial`` objects over the
    C heap primitives, so the trigger sites in ``sim/events.py`` and
    ``sim/process.py`` pay one C-level call per event.
    """

    __slots__ = ("_heap", "push", "pop")

    def __init__(self):
        self._heap = []
        self.push = partial(heappush, self._heap)
        self.pop = partial(heappop, self._heap)

    def peek_entry(self):
        """The next entry to dispatch, or None if empty."""
        heap = self._heap
        return heap[0] if heap else None

    def peek_when(self):
        """Time of the next entry, or None if empty."""
        heap = self._heap
        return heap[0][0] if heap else None

    def __len__(self):
        return len(self._heap)

    def __repr__(self):
        return "<HeapQueue pending=%d>" % len(self._heap)


def default_kind():
    """Always ``"heap"``: the calendar queue was tried and removed.

    Kept only because ``perfbench/run.py`` imports it for the ``queue``
    field of its result envelope; the benchmark PR that drops that
    field (with ``pooling`` and ``sim.pool_reuse_share``) deletes this
    function and :func:`repro.sim.pool.default_pooling` together.
    """
    return "heap"
