"""Pluggable event schedulers for the simulation kernel.

The kernel dispatches events in ``(when, priority, sequence)`` order —
the *total order contract* (DESIGN.md, "Scheduler model").  This module
provides interchangeable queue implementations of that contract:

* :class:`HeapQueue` — the reference implementation, a single binary
  heap (C ``heapq``).  Simple, obviously correct, and the schedule
  every other implementation is proven against.
* :class:`CalendarQueue` — a calendar-queue / timer-wheel hybrid tuned
  for the workload's short-timeout horizon (RPC2 retransmits, SFTP
  rounds, keepalives, trickle ticks).  Events due *at the current
  instant* — the succeed/resume chains that make up roughly half of a
  fleet run — bypass bucket machinery entirely through two O(1) FIFO
  lanes; future events land in width-adaptive calendar buckets (tiny
  per-bucket heaps keyed by time slice), and far-future outliers go to
  an overflow tier so they can never bloat the bucket table or a
  resize.

An *entry* is the tuple ``(when, priority, seq, event)`` — exactly the
tuple the kernel has always heap-pushed, so the tuple order *is* the
dispatch order and FIFO tie-breaking at identical ``(when, priority)``
is carried by the monotone ``seq``.

Scheduler contract (what every implementation must honor):

* ``push`` accepts only entries with ``when`` >= the time of the most
  recently popped entry (the kernel never schedules into the past) and
  ``priority`` in ``{URGENT, NORMAL}``.
* ``pop`` returns entries in ascending ``(when, priority, seq)`` order
  and raises ``IndexError`` when empty.
* ``peek_entry``/``peek_when`` never mutate the observable queue.
* ``len()`` is the number of pending entries (the obs queue-depth
  gauge reads it after every dispatch).

Equivalence of any implementation to :class:`HeapQueue` is enforced by
the differential harness (``tests/sim/differential.py``), a
model-based Hypothesis suite (``tests/properties/
test_queue_properties.py``), and the golden timeline digests — not by
code review.  See the planted-bug fixtures in
``tests/sim/broken_queues.py`` for proof the harness has teeth.

The module-level default kind is what ``Simulator()`` builds when no
queue is passed; it is configuration (like a scenario name), read once
from ``REPRO_QUEUE`` at import and changeable via
:func:`set_default_kind` / :func:`use_kind` — never consulted again
after a Simulator is constructed, so it cannot perturb a running
schedule.
"""

import os
from bisect import insort
from collections import deque
from functools import partial
# Calendar buckets and the overflow tier are ordered by the same
# entry tuples the kernel's reference heap uses; this module is the
# scheduler layer and is allowlisted for SIM001 alongside the kernel.
from heapq import heapify, heappop, heappush


class HeapQueue:
    """The reference scheduler: one binary heap of entry tuples.

    ``push``/``pop`` are bound ``functools.partial`` objects over the
    C heap primitives, so the hot trigger sites in ``sim/events.py``
    pay one C-level call per event — the same cost as the inlined
    ``heappush`` they historically carried.
    """

    kind = "heap"

    __slots__ = ("_heap", "push", "pop")

    def __init__(self, start_time=0.0):
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

    def cancel(self, entry):
        """Remove a pending entry; returns True if it was present.

        O(n) — the kernel never cancels (triggered events stay queued
        and dispatch with empty callback lists), so this exists for
        external bookkeeping, not the hot path.
        """
        try:
            self._heap.remove(entry)
        except ValueError:
            return False
        # Re-establish the heap invariant after the arbitrary removal.
        heapify(self._heap)
        return True

    def __len__(self):
        return len(self._heap)

    def __repr__(self):
        return "<HeapQueue pending=%d>" % len(self._heap)


#: Far-future cutoff, in bucket widths: entries further than this many
#: buckets past the current instant go to the overflow tier instead of
#: the calendar.  Keeps day-scale timers (and +inf sentinels) out of
#: the bucket table and out of every resize.
OVERFLOW_SPAN = 4096

#: Bucket-width clamp for the auto-resize.  The floor keeps
#: denormal-small timeout clusters from driving the width (and the
#: bucket indices) into pathological territory; the ceiling bounds how
#: coarse the calendar can get.
MIN_WIDTH = 1e-9
MAX_WIDTH = 1e9

#: Bucketed-entry count that arms the first resize; subsequent
#: thresholds scale with the live population (see ``_resize``).
RESIZE_AT = 64

#: Target mean entries per occupied slice after a resize.  Small
#: per-slice heaps are nearly free (C heappush/heappop on tiny
#: lists); *empty* slices are not — every create/delete of a
#: one-entry bucket costs dict and index-heap traffic in Python.  A
#: moderately deep slice amortizes that bookkeeping across several
#: events, which profiles measurably faster than occupancy ~2.
OCCUPANCY = 8.0


class CalendarQueue:
    """Calendar-queue scheduler with at-instant FIFO lanes.

    Structure:

    * ``_urgent`` / ``_normal`` — deques of entries due exactly at
      ``_instant`` (the time of the most recent dispatch).  Pushes at
      the current instant are appends; pops are popleft.  Because
      ``seq`` is monotone in push order, append order *is*
      ``(priority, seq)`` order within each lane, and draining urgent
      before normal reproduces the heap's priority order exactly.
    * ``_ready`` — the *bottom rung*: when the calendar advances past
      the lanes it lifts the entire minimum slice (plus any overflow
      entries below that slice's top), sorts it once with C
      ``list.sort``, and then serves it by walking a cursor
      (``_ready_pos``).  Pops from the rung are a list index and an
      integer increment — no heap ops at all.  New entries that land
      inside the rung's window ``(_instant, _limit)`` are placed by C
      ``bisect.insort``, which inserts equal keys to the right and so
      preserves FIFO ties (``seq`` is monotone in push order).
    * ``_buckets`` — dict mapping time slice ``trunc(when / width)``
      to a small heap of entries in that slice.  The mapping is
      monotone in ``when``, so slices never reorder relative to each
      other and the per-slice heaps restore total order within.
    * ``_active`` — a heap of live slice indices; its head names the
      slice holding the global future minimum.
    * ``_overflow`` — plain heap for entries beyond
      ``OVERFLOW_SPAN`` bucket widths (and non-finite times).

    The rung's window bound ``_limit`` is monotone non-decreasing and
    every entry in ``_buckets``/``_overflow`` is at a time >=
    ``_limit`` (pushes below it insort into the rung; each refill
    migrates the overflow entries below the new bound), so the rung
    head is always the global future minimum and the tiers never need
    comparing against it on the hot path.

    Width auto-resize: when the bucketed population doubles past the
    last threshold, the width is recomputed from the live span so the
    average slice holds ~``OCCUPANCY`` entries, and every bucketed
    entry is re-sliced under the new width (the overflow tier is
    exempt, which is the point of having it).  Resize is a pure
    restructuring driven only by push counts — it cannot change pop
    order, which the property suite checks explicitly.
    """

    kind = "calendar"

    __slots__ = ("_urgent", "_normal", "_instant", "_buckets", "_active",
                 "_overflow", "_width", "_future", "_resize_at",
                 "_ready", "_ready_pos", "_limit")

    def __init__(self, start_time=0.0):
        self._urgent = deque()
        self._normal = deque()
        self._instant = float(start_time)
        self._buckets = {}
        self._active = []
        self._overflow = []
        self._width = 1.0
        self._future = 0          # entries in _buckets (not overflow)
        self._resize_at = RESIZE_AT
        # The bottom rung: the minimum slice, lifted whole and sorted,
        # served by a cursor (C-speed list indexing instead of heap
        # ops).  Covers times in (_instant, _limit); pushes into that
        # window insort directly (bisect keeps FIFO ties: equal keys
        # insert to the right, and seq is monotone in push order).
        self._ready = []
        self._ready_pos = 0
        self._limit = float("-inf")

    # -- scheduling -------------------------------------------------------

    def push(self, entry):
        """Insert ``entry``; at-instant entries take the FIFO lanes.

        The bucket/overflow logic is ``_push_future`` inlined (push
        runs once per event and a second Python call per timeout shows
        up in fleet-scale profiles — keep the two in sync), with one
        extra branch in front: entries inside the current rung window
        insort straight into the ready run.
        """
        when = entry[0]
        instant = self._instant
        if when == instant:
            # URGENT is 0: falsy selects the urgent lane.
            if entry[1]:
                self._normal.append(entry)
            else:
                self._urgent.append(entry)
            return
        if when < self._limit:
            # Inside the rung window: C insort keeps the ready run
            # sorted; the popped prefix before _ready_pos is all at
            # times <= _instant < when, so it is a safe search floor.
            insort(self._ready, entry, self._ready_pos)
            return
        width = self._width
        if not (when - instant <= OVERFLOW_SPAN * width):
            heappush(self._overflow, entry)
            return
        index = int(when / width)
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = [entry]
            heappush(self._active, index)
        else:
            heappush(bucket, entry)
        self._future += 1
        if self._future >= self._resize_at:
            self._resize()

    def _push_future(self, entry):
        when = entry[0]
        width = self._width
        if not (when - self._instant <= OVERFLOW_SPAN * width):
            # Far-future outlier (or +inf / nan): overflow tier.  The
            # inverted comparison routes non-finite times here too.
            heappush(self._overflow, entry)
            return
        index = int(when / width)
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = [entry]
            heappush(self._active, index)
        else:
            heappush(bucket, entry)
        self._future += 1
        if self._future >= self._resize_at:
            self._resize()

    # -- dispatch ---------------------------------------------------------

    def pop(self):
        """Remove and return the minimum entry; IndexError if empty."""
        if self._urgent:
            return self._urgent.popleft()
        if self._normal:
            return self._normal.popleft()
        entry = self._advance(None)
        if entry is None:
            raise IndexError("pop from empty CalendarQueue")
        return entry

    def _future_min(self):
        """The minimum future entry (bucket or overflow), or None.

        Lazily discards stale ``_active`` indices left behind by
        ``cancel``; otherwise read-only.
        """
        active = self._active
        buckets = self._buckets
        bucket = None
        while active:
            bucket = buckets.get(active[0])
            if bucket:
                break
            heappop(active)          # stale index from a cancel
            bucket = None
        overflow = self._overflow
        candidate = bucket[0] if bucket else None
        if overflow and (candidate is None or overflow[0] < candidate):
            return overflow[0]
        return candidate

    def _advance(self, deadline):
        """Pop the future minimum and make its time the new instant.

        Returns the popped entry, or None if the queue holds no future
        entry at or before ``deadline`` (a refused advance may still
        have restructured tiers internally — refill below — but never
        changes the observable schedule).  Companion entries at
        exactly the new instant are drained into the FIFO lanes so
        later at-instant pushes (which carry larger ``seq``) slot in
        behind them, preserving FIFO ties.

        The hot path is the rung: a list index, a compare, and a
        cursor bump.  Everything else lives in ``_refill``.
        """
        ready = self._ready
        pos = self._ready_pos
        if pos < len(ready):
            entry = ready[pos]
            when = entry[0]
            if deadline is not None and when > deadline:
                return None
            pos += 1
            self._instant = when
            if pos < len(ready) and ready[pos][0] == when:
                urgent, normal = self._urgent, self._normal
                while pos < len(ready) and ready[pos][0] == when:
                    companion = ready[pos]
                    if companion[1]:
                        normal.append(companion)
                    else:
                        urgent.append(companion)
                    pos += 1
            self._ready_pos = pos
            return entry
        return self._refill(deadline)

    def _refill(self, deadline):
        """Lift the next rung (or serve the overflow tier) and advance.

        Picks the minimum live slice, removes it from the calendar
        wholesale, merges in every overflow entry below the slice's
        top bound, sorts the lot once, and installs it as the new
        ready run — then hands the first pop back to ``_advance``.
        Equal times always share a slice under any width, and the
        overflow migration bound is the same ``_limit`` the push path
        honors, so the rung is a complete, in-order prefix of the
        future.

        When only the overflow tier remains (times beyond every
        bucket), entries are served from it directly one instant at a
        time; its times sit at or above ``_limit``, so the stale rung
        window cannot capture pushes that belong behind them.
        """
        active = self._active
        buckets = self._buckets
        bucket = None
        index = 0
        while active:
            index = active[0]
            bucket = buckets.get(index)
            if bucket:
                break
            heappop(active)          # stale index from a cancel
            bucket = None
        overflow = self._overflow
        if bucket is None:
            if not overflow:
                return None
            entry = overflow[0]
            when = entry[0]
            if deadline is not None and when > deadline:
                return None
            heappop(overflow)
            self._instant = when
            if overflow and overflow[0][0] == when:
                urgent, normal = self._urgent, self._normal
                while overflow and overflow[0][0] == when:
                    companion = heappop(overflow)
                    if companion[1]:
                        normal.append(companion)
                    else:
                        urgent.append(companion)
            return entry
        rung = bucket
        del buckets[index]
        heappop(active)
        self._future -= len(rung)
        limit = (index + 1) * self._width
        while overflow and overflow[0][0] < limit:
            rung.append(heappop(overflow))
        rung.sort()
        self._ready = rung
        self._ready_pos = 0
        self._limit = limit
        return self._advance(deadline)

    # -- inspection -------------------------------------------------------

    def peek_entry(self):
        """The next entry to dispatch, or None if empty."""
        if self._urgent:
            return self._urgent[0]
        if self._normal:
            return self._normal[0]
        ready = self._ready
        pos = self._ready_pos
        if pos < len(ready):
            return ready[pos]
        return self._future_min()

    def peek_when(self):
        """Time of the next entry, or None if empty."""
        entry = self.peek_entry()
        return entry[0] if entry is not None else None

    def cancel(self, entry):
        """Remove a pending entry; returns True if it was present."""
        for lane in (self._urgent, self._normal):
            try:
                lane.remove(entry)
            except ValueError:
                continue
            return True
        try:
            position = self._ready.index(entry, self._ready_pos)
        except ValueError:
            pass
        else:
            del self._ready[position]
            return True
        width = self._width
        when = entry[0]
        if when - self._instant <= OVERFLOW_SPAN * width:
            index = int(when / width)
            bucket = self._buckets.get(index)
            if bucket is not None and entry in bucket:
                bucket.remove(entry)
                self._future -= 1
                if bucket:
                    heapify(bucket)
                else:
                    # Leave the stale index in _active; _future_min
                    # discards it lazily.
                    del self._buckets[index]
                return True
        if entry in self._overflow:
            self._overflow.remove(entry)
            heapify(self._overflow)
            return True
        return False

    def __len__(self):
        return (len(self._urgent) + len(self._normal)
                + len(self._ready) - self._ready_pos + self._future
                + len(self._overflow))

    def __repr__(self):
        return ("<CalendarQueue pending=%d width=%g buckets=%d "
                "overflow=%d>" % (len(self), self._width,
                                  len(self._buckets),
                                  len(self._overflow)))

    # -- width auto-resize ------------------------------------------------

    def _resize(self):
        """Re-slice every bucketed entry under a width fit to the load.

        Triggered when the bucketed population doubles past the last
        threshold.  The new width spreads the live span so the average
        slice holds ~``OCCUPANCY`` entries (deep enough that lifting
        one slice as a rung amortizes its bookkeeping); equal times
        always share a slice under any width, so the drain-companions
        invariant survives.
        """
        entries = []
        for bucket in self._buckets.values():
            entries.extend(bucket)
        if entries:
            low = min(entry[0] for entry in entries)
            high = max(entry[0] for entry in entries)
            span = high - low
            if span > 0.0:
                width = span * OCCUPANCY / len(entries)
                self._width = min(max(width, MIN_WIDTH), MAX_WIDTH)
        self._buckets = {}
        self._active = []
        self._future = 0
        self._resize_at = max(2 * len(entries), RESIZE_AT)
        for entry in entries:
            self._push_future(entry)
        # _push_future re-counts and may re-arm; pin the threshold
        # after the rebuild so one resize can't cascade into another.
        self._resize_at = max(2 * self._future, RESIZE_AT)


# ---------------------------------------------------------------------------
# Registry and default kind


#: kind -> factory(start_time) -> queue instance.  Tests register
#: additional kinds (including deliberately broken ones) here.
QUEUE_KINDS = {
    HeapQueue.kind: HeapQueue,
    CalendarQueue.kind: CalendarQueue,
}

#: The kind ``Simulator()`` builds by default.  The calendar queue
#: became the default once every equivalence tier (differential
#: harness, property suite, all 11 golden digests) was green; set
#: ``REPRO_QUEUE=heap`` to fall back to the reference scheduler.
_default_kind = os.environ.get("REPRO_QUEUE", CalendarQueue.kind)


def register_kind(kind, factory):
    """Register a scheduler ``factory(start_time)`` under ``kind``."""
    QUEUE_KINDS[kind] = factory


def default_kind():
    """The kind built when ``Simulator(queue=None)``."""
    return _default_kind


def set_default_kind(kind):
    """Set the default kind; returns the previous one.

    Also mirrors the choice into ``REPRO_QUEUE`` so worker processes
    spawned after the call (fleetd/ckpt pools) build the same kind.
    """
    global _default_kind
    if kind not in QUEUE_KINDS:
        raise ValueError("unknown queue kind %r (have %s)"
                         % (kind, ", ".join(sorted(QUEUE_KINDS))))
    previous = _default_kind
    _default_kind = kind
    os.environ["REPRO_QUEUE"] = kind
    return previous


class use_kind:
    """Context manager: run a block under a different default kind."""

    def __init__(self, kind):
        self.kind = kind
        self._previous = None

    def __enter__(self):
        self._previous = set_default_kind(self.kind)
        return self

    def __exit__(self, *exc_info):
        set_default_kind(self._previous)
        return False


def make_queue(kind=None, start_time=0.0):
    """Build a scheduler of ``kind`` (default: :func:`default_kind`).

    ``kind`` may also be an already-constructed queue object, which is
    returned as-is (the differential harness injects instances this
    way).
    """
    if kind is None:
        kind = _default_kind
    if not isinstance(kind, str):
        return kind
    try:
        factory = QUEUE_KINDS[kind]
    except KeyError:
        raise ValueError("unknown queue kind %r (have %s)"
                         % (kind, ", ".join(sorted(QUEUE_KINDS)))) from None
    return factory(start_time)
