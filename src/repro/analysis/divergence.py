"""Schedule-divergence detection: a race detector for hidden nondeterminism.

The linter proves the *source* honors the contract; this module probes
the *runtime*.  A scenario is executed several times in child
interpreters, each under a different perturbation that a correct run
must be invisible to:

* ``PYTHONHASHSEED`` — str/bytes hashing, and therefore ``set`` (and
  legacy dict) iteration order, changes between children.  Code that
  schedules out of a set survives one run but disagrees across runs.
* **global-random reseeding** — the child reseeds the process-global
  ``random`` generator before the scenario; code drawing from it
  (instead of ``sim.rand``) produces different values per child.
* **decoy-stream perturbation** — every :class:`RandomStreams` built
  in the child immediately materializes a ``analysis.decoy`` stream
  and burns a child-specific number of draws from it.  Named streams
  are independent by construction, so a correct run is unaffected;
  code that shares streams or depends on the stream table's contents
  diverges.

The obs event timeline is the witness: two perturbed runs of a
deterministic scenario must produce byte-identical timelines.  On
disagreement the report pinpoints the first divergent event with
surrounding context from both runs — the simulation analogue of a
race detector naming the first conflicting access.
"""

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field

#: (hash seed, decoy draws) for the default pair of probe runs.  The
#: hash seeds are fixed so the probe itself is reproducible.
DEFAULT_PERTURBATIONS = ((1, 0), (4242, 7))

_GLOBAL_RESEED = 0x5EED


# ---------------------------------------------------------------------------
# Scenario resolution


def resolve_scenario(spec):
    """A scenario reference -> a callable taking ``observatory=``.

    The tree's one reference grammar: ``<catalogue-name>`` runs the
    shipped spec of that name through
    :func:`repro.spec.compile.run_spec` at its canonical seed, and
    ``mod:<module>:<function>`` calls any importable scenario (the
    pinned reduced-scale entry points of :mod:`repro.spec.golden`, the
    self-tests).  Anything else is a ValueError; an unknown bare name
    gets the catalogue's own, listing every valid choice.
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
    from repro.obs import Observatory
    observatory = Observatory()
    resolve_scenario(spec)(observatory)
    return [dict(event.to_row()) for event in observatory.trace.events]


def _canonical(event):
    """One event as a canonical comparable line."""
    return json.dumps(event, sort_keys=True, default=repr)


# ---------------------------------------------------------------------------
# Child-side perturbations


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
    import argparse
    import random
    parser = argparse.ArgumentParser()
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--decoy", type=int, default=0)
    args = parser.parse_args(argv)
    # repro: allow[DET002] this IS the perturbation: reseeding the process
    # global generator is how the detector exposes code that draws from it.
    random.seed(_GLOBAL_RESEED + args.decoy)
    if args.decoy:
        _install_decoy_stream(args.decoy)
    for event in capture_timeline(args.scenario):
        sys.stdout.write(_canonical(event) + "\n")
    return 0


def _run_child(spec, hash_seed, decoy):
    """One perturbed run in a child interpreter; returns event lines."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    command = [sys.executable, "-m", "repro.analysis.divergence",
               "--scenario", spec, "--decoy", str(decoy)]
    proc = subprocess.run(command, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            "divergence child failed (hash seed %s, decoy %s):\n%s"
            % (hash_seed, decoy, proc.stderr.strip()))
    return [line for line in proc.stdout.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# Comparison and reporting


@dataclass
class DivergenceReport:
    """Outcome of comparing perturbed timelines of one scenario."""

    scenario: str
    perturbations: tuple
    identical: bool
    events_a: int
    events_b: int
    first_divergence: int = None
    context_a: list = field(default_factory=list)
    context_b: list = field(default_factory=list)

    def format(self):
        runs = " vs ".join("(hashseed=%d, decoy=%d)" % p
                           for p in self.perturbations)
        if self.identical:
            return ("check-determinism %s: %d events byte-identical "
                    "across %s" % (self.scenario, self.events_a, runs))
        lines = [
            "check-determinism %s: DIVERGENCE at event %d (%s)"
            % (self.scenario, self.first_divergence, runs),
            "  run A: %d events; run B: %d events"
            % (self.events_a, self.events_b),
            "  --- run A context ---",
        ]
        lines += ["  " + line for line in self.context_a]
        lines.append("  --- run B context ---")
        lines += ["  " + line for line in self.context_b]
        return "\n".join(lines)


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


def check_determinism(spec, perturbations=DEFAULT_PERTURBATIONS,
                      context=3):
    """Run ``spec`` under each perturbation; compare the timelines.

    Returns a :class:`DivergenceReport`.  Only the first two runs are
    compared pairwise against each other today (more perturbations
    fold into run B's slot sequentially, stopping at the first
    divergence).
    """
    resolve_scenario(spec)   # validate here, not via a child traceback
    baseline_seed, baseline_decoy = perturbations[0]
    lines_a = _run_child(spec, baseline_seed, baseline_decoy)
    for hash_seed, decoy in perturbations[1:]:
        lines_b = _run_child(spec, hash_seed, decoy)
        index, ctx_a, ctx_b = compare_timelines(lines_a, lines_b,
                                                context=context)
        if index is not None:
            return DivergenceReport(
                scenario=spec,
                perturbations=((baseline_seed, baseline_decoy),
                               (hash_seed, decoy)),
                identical=False, events_a=len(lines_a),
                events_b=len(lines_b), first_divergence=index,
                context_a=ctx_a, context_b=ctx_b)
    return DivergenceReport(
        scenario=spec, perturbations=tuple(perturbations),
        identical=True, events_a=len(lines_a), events_b=len(lines_a))


if __name__ == "__main__":    # the perturbed child of _run_child
    raise SystemExit(_child_main(sys.argv[1:]))
