"""Model-based check of the kernel's queue against a sorted oracle.

The oracle is a plain list: the next entry out of a correct queue is
``min(pending)`` under tuple order ``(when, prio, seq)``.  Hypothesis
drives arbitrary interleavings of push/pop with adversarial time
distributions — all-same-time ties, denormal-small deltas, far-future
outliers, and +inf — and the suite checks every observable after every
operation: pop order, ``len``, ``peek_entry``.
"""

from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.queue import HeapQueue

#: Ties (0.0), denormal and near-epsilon steps, far-future outliers,
#: and infinity (how "never" timers are spelled).
DELAYS = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 1e-12, 0.25, 0.5, 0.999999, 1.0,
                     1.0000001, 2.0, 3.5, 4095.0, 4096.0, 4097.0,
                     1e7, float("inf")]),
    st.floats(min_value=0.0, max_value=8.0,
              allow_nan=False, allow_infinity=False),
)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), DELAYS, st.integers(0, 1)),
        st.tuples(st.just("pop")),
    ),
    max_size=150,
)


@settings(max_examples=60, deadline=None)
@given(OPS)
def test_heap_queue_matches_the_oracle(ops):
    queue = HeapQueue()
    sequence = count()
    instant = 0.0
    pending = []
    for op in ops:
        if op[0] == "push":
            _, delay, prio = op
            entry = (instant + delay, prio, next(sequence), None)
            queue.push(entry)
            pending.append(entry)
        elif not pending:
            with pytest.raises(IndexError):
                queue.pop()
        else:
            expected = min(pending)
            got = queue.pop()
            assert got == expected, (got, expected)
            pending.remove(got)
            instant = got[0]
        assert len(queue) == len(pending)
        expected_peek = min(pending) if pending else None
        assert queue.peek_entry() == expected_peek
        expected_when = expected_peek[0] if pending else None
        assert queue.peek_when() == expected_when
    # Drain: whatever the script left behind must come out in order.
    for expected in sorted(pending):
        assert queue.pop() == expected
    assert len(queue) == 0
    assert queue.peek_entry() is None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=40),
       st.sampled_from([0.0, 0.5, 4096.5, float("inf")]))
def test_fifo_tie_break_at_identical_when_and_prio(prios, when):
    """Entries tied on (when, prio) must pop in insertion order."""
    queue = HeapQueue()
    entries = [(when, prio, seq, None) for seq, prio in enumerate(prios)]
    for entry in entries:
        queue.push(entry)
    expected = sorted(entries)      # (when, prio, seq): FIFO within prio
    assert [queue.pop() for _ in entries] == expected
