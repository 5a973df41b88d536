"""The kernel budget: calls into ``repro/sim`` per dispatched event.

The clock-free twin of ``tests/obs/test_obs_budget.py`` for the kernel
itself, on an uninstrumented fleet shard: every Python call whose code
lives under ``repro/sim/`` — event and process constructors, ``sleep``,
``_process``, ``_resume``, lock traffic — divided by ``dispatched``.
The count is a pure function of (scenario, seed, length).  With the
calendar queue's Python ``push``/``_advance`` and the pool's allocation
primitives on the path this was 6.8; allocating where used behind C
``heapq`` it was 5.0, later ~4.55, and ~4.1 since the host CPU became
a clock instead of a lock (no grant event, no ``Lock`` calls per CPU
use).  Parking the idle trickle daemon removed cheap dispatches and
their calls alike: 4.14 at three hours and six.  A ping without a
process (no bootstrap, ``_resume``, ``AnyOf`` or ``_on_child`` calls)
and handlers without child processes: 3.23 and 3.20.  The budget is
5.2.

It must also stay *flat* in the length of the run: per-event kernel
work that grows with history is a complexity bug no timing gate sees
at benchmark scale.
"""

from tests.obs.test_obs_budget import LONG_DAYS, SHORT_DAYS, calls_per_dispatch

BUDGET = 5.2


def test_kernel_costs_at_most_five_calls_per_dispatch_and_stays_flat():
    short = calls_per_dispatch("sim", SHORT_DAYS, instrument=False)
    long = calls_per_dispatch("sim", LONG_DAYS, instrument=False)
    assert short <= BUDGET and long <= BUDGET, (short, long)
    assert long <= short * 1.01, (short, long)
