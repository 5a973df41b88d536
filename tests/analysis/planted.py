"""Planted hazards for the golden probe's own tests.

``divergent_scenario`` deliberately schedules out of a ``set`` of
strings, the canonical hash-order hazard, so the perturbed children of
``repro ledger golden`` have a guaranteed disagreement to find (and
the tests can assert it is located at event 0).  ``crashing_scenario``
fails outright.  Both run in the children as
``mod:tests.analysis.planted:<name>``.
"""

from repro.sim import Simulator

#: Enough names that two hash seeds almost surely order them apart.
_LINKS = tuple("probe-%s" % token for token in
               ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
                "golf", "hotel", "india", "juliet", "kilo", "lima"))


def _emit(sim, name, delay):
    def probe():
        yield sim.sleep(delay)
        obs = sim.obs
        if obs.enabled:
            obs.event("packet_drop", link=name, reason="loss", bytes=1)
    sim.process(probe(), name=name)


def divergent_scenario(observatory=None):
    """Schedules straight out of a set: hash-order dependent."""
    sim = Simulator()
    if observatory is not None:
        observatory.install(sim)
    delay = 0
    # repro: allow[DET003] deliberate hash-order hazard: this is the planted
    # nondeterminism the golden probe's self-test must locate.
    for name in set(_LINKS):
        delay += 1
        _emit(sim, name, float(delay))
    sim.run()
    return sim


def crashing_scenario(observatory=None):
    """Fails before it simulates anything."""
    raise RuntimeError("planted crash")
