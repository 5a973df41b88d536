"""Golden-schedule regression pins: the ``golden`` table of the ledger.

Each golden scenario's obs timeline is pinned *across trees* and
proven stable *across perturbations of one tree* by the same run: the
selected rows run in two child interpreters of
:mod:`repro.analysis.divergence`, one per perturbation, the second in
reverse order.  The children must agree line for line; their timeline
is then hashed (sha256 over the canonical event lines, as a shard
digest is) and compared against ``tests/golden/timelines.json``.  Any
change to scheduling order, event payloads, or event counts —
including "harmless" performance work — flips the digest and fails
the check.

That makes the pins the enforcement mechanism for this repo's
optimization rule: a fast path is only admissible if it is
*schedule-identical*, i.e. every golden digest is unchanged.
:mod:`repro.analysis.ledger` reads, checks and re-pins the file;
after an intentional semantic change::

    python -m repro ledger golden --regen

and commit the updated fixture alongside the change that justified it.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from repro.analysis.divergence import PERTURBATIONS, compare_timelines

#: The pinned scenarios: the five scripted testbed specs and the micro
#: fleet by catalogue name, then the reduced-scale entry points of
#: :mod:`repro.spec.golden` — two fleet-8 shards, the three spec
#: families and the trace replay — so kernel, transport, cache,
#: replay, multi-client, and sharded-fleet scheduling paths are all
#: covered.  The shard entries pin what a worker process simulates — a
#: sharded run is only provably equivalent to the single-process
#: schedule if that schedule itself cannot drift silently.
GOLDEN_SCENARIOS = (
    "trickle",
    "outage",
    "smoke",
    "client-crash",
    "server-crash",
    "fleet-golden",
    "mod:repro.spec.golden:golden_shard0",
    "mod:repro.spec.golden:golden_shard1",
    "mod:repro.spec.golden:commuter_golden",
    "mod:repro.spec.golden:conflict_storm_golden",
    "mod:repro.spec.golden:doc_archive_golden",
    "mod:repro.spec.golden:replay_golden",
)


def probe(names, workers=None):
    """Yield ``(name, {"sha256", "events"})`` for each row both children
    agree on; then raise RowFailure naming each row they do not, at its
    first divergent event.  A failed child raises it with its stderr.
    """
    from repro.analysis.ledger import RowFailure
    from repro.fleetd.executor import digest_lines
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, sys.path)))

    def child(order, hash_seed, decoy):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis.divergence",
             "--decoy", str(decoy), *order],
            env=dict(env, PYTHONHASHSEED=str(hash_seed)),
            capture_output=True, text=True)

    orders = (list(names), list(reversed(names)))
    labels = ["child %s (hash seed %d, decoy %d, %s order)" % args for args
              in zip("AB", *zip(*PERTURBATIONS), ("table", "reverse"))]
    # A thread per child: both run at once, each with its pipes drained.
    with ThreadPoolExecutor(2) as pool:
        done = list(pool.map(child, orders, *zip(*PERTURBATIONS)))
    timelines = []
    for label, order, proc in zip(labels, orders, done):
        if proc.returncode:
            raise RowFailure("%s exited %d:\n%s" % (
                label, proc.returncode, proc.stderr.rstrip()))
        # One block per scenario: its event lines, then an empty line.
        timelines.append({name: block.split("\n") if block else []
                          for name, block in zip(order,
                                                 proc.stdout.split("\n\n"))})
    divergent = []
    for name in names:
        lines_a, lines_b = (timeline[name] for timeline in timelines)
        index, *contexts = compare_timelines(lines_a, lines_b)
        if index is None:
            yield name, {"sha256": digest_lines(lines_a),
                         "events": len(lines_a)}
            continue
        divergent.append("%s: the perturbed children diverge at event %d"
                         % (name, index))
        for label, lines, context in zip(labels, (lines_a, lines_b),
                                         contexts):
            divergent.append("  %s, %d events:" % (label, len(lines)))
            divergent += ["    " + line for line in context]
    if divergent:
        raise RowFailure("\n".join(divergent))
