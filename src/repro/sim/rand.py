"""Named deterministic random streams.

Every stochastic component of the reproduction (packet loss, trace
generation, client session patterns) draws from a named stream so that
adding randomness to one component never perturbs another — the key to
run-to-run reproducibility of the benchmark tables.
"""

import random


def derive_rng(*parts):
    """The one sanctioned way to build a standalone ``random.Random``.

    Joins ``parts`` with ``::`` into a stable string seed — e.g.
    ``derive_rng("hoard", "user1", 3)`` seeds with ``"hoard::user1::3"``
    — so callers that historically seeded with hand-formatted strings
    keep byte-identical sequences (the benchmark tables must not
    shift).  Components with a live simulator should prefer the named
    streams of :class:`RandomStreams`; this helper exists for code that
    derives generators *before* a simulator exists (trace generation,
    benchmark population synthesis) and is the only call site of
    ``random.Random`` the determinism linter (DET002) permits outside
    this module.
    """
    return random.Random("::".join(str(part) for part in parts))


class RandomStreams:
    """A family of independent :class:`random.Random` generators.

    Streams are keyed by name; the same ``(seed, name)`` pair always
    yields the same sequence.
    """

    def __init__(self, seed=0):
        self.seed = seed
        self._streams = {}

    def stream(self, name):
        """Return (creating if needed) the generator for ``name``."""
        generator = self._streams.get(name)
        if generator is None:
            # Derive a stable per-stream seed from the master seed and
            # the stream name; Random accepts arbitrary hashable seeds
            # but we use a string for cross-version stability.
            generator = random.Random("%s::%s" % (self.seed, name))
            self._streams[name] = generator
        return generator

    def state(self):
        """Picklable ``{name: generator state}`` over every named stream.

        Keys are sorted so the capture is byte-identical however the
        streams were created; :meth:`restore` is the inverse.  This is
        the kernel-level hook checkpointing (:mod:`repro.ckpt`) uses to
        freeze a simulation's entire stochastic future at a boundary.
        """
        return {name: self._streams[name].getstate()
                for name in sorted(self._streams)}

    def restore(self, states):
        """Rewind every named stream to a :meth:`state` capture.

        Streams not yet created are created first; streams outside the
        capture are untouched (they re-derive from the master seed on
        first use, exactly as in the run that produced the capture).
        """
        for name in sorted(states):
            self.stream(name).setstate(states[name])
