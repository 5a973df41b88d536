"""Scenario references, timeline capture, and the perturbed child.

Every golden check (:mod:`repro.analysis.golden`) runs the pinned
table in two child interpreters of this module, each under
perturbations a correct run must be invisible to:

* ``PYTHONHASHSEED`` — str/bytes hashing, and therefore ``set``
  iteration order, changes between children: code that schedules out
  of a set survives one run but disagrees across runs;
* **global-random reseeding** — code drawing from the process-global
  ``random`` (instead of ``sim.rand``) draws different values;
* **decoy-stream perturbation** — every :class:`RandomStreams` built
  in the child burns a child-specific number of draws from an
  ``analysis.decoy`` stream.  Named streams are independent by
  construction, so only code that shares streams or depends on the
  stream table's contents diverges.

The obs event timeline is the witness: both children must produce
byte-identical timelines, and :func:`compare_timelines` pinpoints the
first divergent event with context from both — the simulation
analogue of a race detector naming the first conflicting access.
"""

import sys

#: (hash seed, decoy draws) of the two perturbed children.  The hash
#: seeds are fixed so the probe itself is reproducible.
PERTURBATIONS = ((1, 0), (4242, 7))

_GLOBAL_RESEED = 0x5EED


def resolve_scenario(spec):
    """A scenario reference -> a callable taking ``observatory=``.

    The tree's one reference grammar: ``<catalogue-name>`` runs the
    shipped spec of that name through
    :func:`repro.spec.compile.run_spec` at its canonical seed, and
    ``mod:<module>:<function>`` calls any importable scenario (the
    pinned reduced-scale entry points of :mod:`repro.spec.golden`, the
    planted hazards of the test suite).  Anything else is a
    ValueError; an unknown bare name gets the catalogue's own, listing
    every valid choice.
    """
    if ":" not in spec:
        from repro.spec.catalog import get
        from repro.spec.compile import run_spec
        shipped = get(spec)
        return lambda observatory: run_spec(shipped,
                                            observatory=observatory)
    kind, _, rest = spec.partition(":")
    if kind == "mod":
        module_name, _, func_name = rest.rpartition(":")
        if module_name and func_name:
            import importlib
            try:
                module = importlib.import_module(module_name)
                func = getattr(module, func_name)
            except (ImportError, AttributeError) as exc:
                raise ValueError(
                    "cannot load scenario %r: %s" % (spec, exc)) from exc
            return lambda observatory: func(observatory=observatory)
    raise ValueError(
        "scenario reference %r is neither a catalogue name nor "
        "mod:<module>:<function>" % spec)


def capture_timeline(spec):
    """Run ``spec`` with a fresh Observatory; returns event dicts."""
    from repro.fleetd.executor import timeline_rows
    from repro.obs import Observatory
    observatory = Observatory()
    resolve_scenario(spec)(observatory)
    return timeline_rows(observatory)


def _install_decoy_stream(draws):
    """Make every RandomStreams burn ``draws`` decoy values at birth."""
    from repro.sim.rand import RandomStreams
    original_init = RandomStreams.__init__

    def perturbed_init(self, seed=0):
        original_init(self, seed)
        decoy = self.stream("analysis.decoy")
        for _ in range(draws):
            decoy.random()

    RandomStreams.__init__ = perturbed_init


def _child_main(argv):
    """Run every named scenario in order, perturbed, in this interpreter.

    Each scenario's timeline goes to stdout as its canonical event
    lines and then an empty line (an event line never is empty).
    """
    import argparse
    import random

    from repro.fleetd.executor import canonical
    parser = argparse.ArgumentParser()
    parser.add_argument("--decoy", type=int, default=0)
    parser.add_argument("scenarios", nargs="+")
    args = parser.parse_args(argv)
    # repro: allow[DET002] this IS the perturbation: reseeding the process
    # global generator is how the probe exposes code that draws from it.
    random.seed(_GLOBAL_RESEED + args.decoy)
    if args.decoy:
        _install_decoy_stream(args.decoy)
    for spec in args.scenarios:
        sys.stdout.write("\n".join(map(canonical, capture_timeline(spec)))
                         + "\n\n")
    return 0


def compare_timelines(lines_a, lines_b, context=3):
    """First index where two canonical timelines disagree, or None."""
    for index, (line_a, line_b) in enumerate(zip(lines_a, lines_b)):
        if line_a != line_b:
            return index, _context(lines_a, index, context), \
                _context(lines_b, index, context)
    if len(lines_a) != len(lines_b):
        index = min(len(lines_a), len(lines_b))
        return index, _context(lines_a, index, context), \
            _context(lines_b, index, context)
    return None, [], []


def _context(lines, index, context):
    lo = max(0, index - context)
    out = []
    for position in range(lo, min(len(lines), index + context + 1)):
        marker = ">>" if position == index else "  "
        out.append("%s [%d] %s" % (marker, position, lines[position]))
    if index >= len(lines):
        out.append(">> [%d] <end of timeline>" % index)
    return out


if __name__ == "__main__":    # a perturbed child of repro.analysis.golden
    raise SystemExit(_child_main(sys.argv[1:]))
