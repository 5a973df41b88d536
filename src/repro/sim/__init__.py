"""Deterministic discrete-event simulation kernel.

This package is the substrate for every timed component of the
reproduction: network links, transport protocols, the Coda server,
Venus daemons, and trace replay all run as generator-based processes
on a single :class:`~repro.sim.kernel.Simulator`.

The design follows the familiar SimPy model: a process is a generator
that ``yield``\\ s :class:`~repro.sim.events.Event` objects and is
resumed when they trigger.  Determinism is guaranteed: the event queue
is ordered by ``(time, priority, sequence)`` and all randomness flows
through named :class:`~repro.sim.rand.RandomStreams`.
"""

from repro.sim.events import (
    AnyOf,
    At,
    Event,
    Interrupt,
    Timeout,
)
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.rand import RandomStreams
from repro.sim.resources import Lock, Store
from repro.sim.tally import KernelTally

__all__ = [
    "AnyOf",
    "At",
    "Event",
    "Interrupt",
    "KernelTally",
    "Lock",
    "Process",
    "RandomStreams",
    "Simulator",
    "Store",
    "Timeout",
]
