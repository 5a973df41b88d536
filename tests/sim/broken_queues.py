"""Deliberately broken queues: proof the differential harness bites.

A verification harness is only trustworthy if it demonstrably fails on
defective inputs (the planted-corruption style of
``tests/ckpt/test_verify.py``).  Each queue here is the kernel's heap
with its ordering key damaged in one realistic way;
``test_differential.py`` asserts the harness pinpoints both at the
exact first diverging event.  Both go through the plain ``step()``
loop, like any injected queue object.
"""

from heapq import heappop, heappush

from repro.sim.events import URGENT


class _KeyedHeap:
    """The queue interface over a heap ordered by ``key(entry)``.

    Every key below ends in the entry's unique ``seq``, so the heap
    never falls through to comparing the entries themselves.
    """

    def __init__(self):
        self._heap = []

    def push(self, entry):
        heappush(self._heap, (self.key(entry), entry))

    def pop(self):
        return heappop(self._heap)[1]

    def peek_entry(self):
        return self._heap[0][1] if self._heap else None

    def peek_when(self):
        return self._heap[0][1][0] if self._heap else None

    def __len__(self):
        return len(self._heap)


class LifoUrgentTiesQueue(_KeyedHeap):
    """Heap that runs same-instant urgent ties newest-first.

    ``(when, priority)`` order is intact; only the ``seq`` tie-break
    among urgent events is reversed.  Two processes started at the
    same instant bootstrap in reverse creation order — precisely the
    class of bug FIFO tie-breaking exists to exclude, and invisible to
    any check that only looks at dispatch *times*.
    """

    @staticmethod
    def key(entry):
        when, prio, seq, _event = entry
        return (when, prio, -seq if prio == URGENT else seq)    # the bug


class NonMonotoneKeyQueue(_KeyedHeap):
    """Heap keyed by a time slice whose lowest bit is flipped.

    Adjacent one-second slices trade places, so an entry in the higher
    slice can pop before one in the lower; within a slice everything
    still behaves.  Any *monotone* re-keying of time would reorder
    nothing — the bug that bites is a non-monotone one, which is what
    bucketed index math suffers at a boundary.  Finite times only.
    """

    @staticmethod
    def key(entry):
        return (int(entry[0]) ^ 1,) + entry[:3]                 # the bug


#: Loop names for ``differential.LOOPS``.
BROKEN_LOOPS = {
    "broken-ties": LifoUrgentTiesQueue,
    "broken-key": NonMonotoneKeyQueue,
}
