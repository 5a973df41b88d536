"""The observatory: one object that watches a whole simulation.

An :class:`Observatory` bundles a :class:`~repro.obs.metrics.MetricsRegistry`
and a :class:`~repro.obs.events.TraceRecorder` and installs itself as
``sim.obs``.  Instrumented code throughout the stack reads ``sim.obs``
dynamically and guards every emission with ``obs.enabled``::

    obs = self.sim.obs
    if obs.enabled:
        obs.metrics.counter("link.transitions", link=self.name,
                            to="down").inc()
        obs.event("link_down", link=self.name)

The default is :data:`NULL_OBS`, whose ``enabled`` is False — the
guard is one attribute load and one branch, nothing is allocated, no
simulation event is scheduled and no randomness is drawn, so a run
with observation off is schedule-identical (and state-identical) to a
run of the pre-instrumentation code.
"""

from functools import partial
from operator import attrgetter

from repro.obs.events import TraceRecorder
from repro.obs.metrics import MetricsRegistry


class _Uninstalled:
    """The clock of an observatory on no simulator: time stands at 0."""

    now = 0.0


_UNINSTALLED = _Uninstalled()


class Observatory:
    """Metrics + tracing for one (or several) simulators.

    Every stamp reads ``self._sim.now``: the registry's clock is a
    ``partial`` of a C ``attrgetter``, so stamping a metric update
    costs no Python frame.  Off a simulator ``_sim`` is a sentinel
    whose ``now`` is 0.0.
    """

    enabled = True

    def __init__(self, sim=None):
        self._sim = _UNINSTALLED
        self.trace = TraceRecorder()
        self.metrics = MetricsRegistry(
            time_fn=partial(attrgetter("_sim.now"), self))
        if sim is not None:
            self.install(sim)

    def time(self):
        """Current simulation time (0.0 until installed on a sim)."""
        return self._sim.now

    def clocked_by(self, sim):
        """True while :meth:`time` reads ``sim.now``.

        The kernel's fast loop asks once when it first meets an
        observatory: if so, the time of the last dispatch *is* the
        stamp its metrics would have carried.
        """
        return self._sim is sim

    def install(self, sim):
        """Attach to ``sim`` so instrumented code can see us."""
        self._sim = sim
        sim.obs = self
        return self

    def uninstall(self):
        """Detach, restoring the zero-overhead null observatory."""
        if self._sim is not _UNINSTALLED:
            self._sim.obs = NULL_OBS
            self._sim = _UNINSTALLED

    def event(self, kind, /, **fields):
        """Record one trace event stamped with simulation time.

        ``kind`` is positional-only so event fields may themselves be
        named ``kind`` (e.g. validation_rpc's volume|object).
        """
        self.trace.record(kind, self._sim.now, **fields)


class NullObservatory:
    """The default ``sim.obs``: observation off.

    Every instrumentation site checks ``enabled`` before it touches
    ``metrics``, ``trace`` or ``event``, so this has nothing else.
    """

    enabled = False


#: The shared zero-overhead default attached to every new Simulator.
NULL_OBS = NullObservatory()
