"""Totals across every simulator a piece of code builds."""

from repro.sim import kernel


class KernelTally:
    """Collects every :class:`Simulator` created inside a ``with`` block.

    Scenarios like the transport sweep build one simulator per trial;
    patching ``Simulator.__init__`` for the duration of the run is the
    least invasive way to aggregate ``dispatched``/``now`` across all
    of them without changing any scenario's return type.
    """

    def __init__(self):
        self.sims = []
        self._original = None

    def __enter__(self):
        self._original = kernel.Simulator.__init__
        sims, original = self.sims, self._original

        def tracking_init(sim, *args, **kwargs):
            original(sim, *args, **kwargs)
            sims.append(sim)

        kernel.Simulator.__init__ = tracking_init
        return self

    def __exit__(self, *exc_info):
        kernel.Simulator.__init__ = self._original
        return False

    @property
    def events(self):
        return sum(sim.dispatched for sim in self.sims)

    @property
    def sim_seconds(self):
        return sum(sim.now for sim in self.sims)
