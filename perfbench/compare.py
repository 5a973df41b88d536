"""Compare two perfbench results: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two runs of one
commit), B the candidate.  For every workload and end-to-end metric it
prints both values with their quartiles, the ratio B/A, the bound and
a verdict:

* ``worse``      B is worse than A by more than the bound;
* ``better``     every repetition of B reads better than every
                 repetition of A (at least three a side), or B is better
                 by more than the bound;
* ``unresolved`` the repetitions of one side spread wider than the
                 bound and the two sides overlap: nothing can be said;
* ``within``     otherwise.

Counts (fingerprints, and per-layer metrics in ``count`` or ``bytes``)
are pure functions of commit and seed, so any difference is listed.
Exit status 1 on any ``worse``, any more failed operations, or any
count that differs; 0 otherwise.
"""

import json
import os
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.realpath(__file__))))

from perfbench.run import MIN_REPS, Refused, load_benchmark   # noqa: E402

EXACT_UNITS = ("count", "bytes")


def verdict(base, candidate, better, bound):
    """Judge one end-to-end metric from the two sides' statistics."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (candidate["value"] / base["value"] - 1.0)
    if worse_by > bound:
        return "worse"
    ahead = [sign * value for value in candidate["values"]]
    behind = [sign * value for value in base["values"]]
    if min(len(ahead), len(behind)) >= MIN_REPS and max(ahead) < min(behind):
        return "better"
    spread = max((side["q3"] - side["q1"]) / side["median"]
                 for side in (base, candidate))
    if spread > bound and min(ahead) <= max(behind):
        return "unresolved"
    return "better" if worse_by < -bound else "within"


def compare(benchmark, base, candidate, out):
    """Print the comparison; returns the number of regressions."""
    regressions = 0
    units = {metric["name"]: metric["unit"]
             for metric in benchmark["per_layer"]}
    for key in ("seed", "scale", "seconds"):
        if base["env"][key] != candidate["env"][key]:
            out("note: %s differs (%r vs %r); counts are not comparable"
                % (key, base["env"][key], candidate["env"][key]))
    out("base %s  candidate %s" % (base["env"]["commit"][:12],
                                   candidate["env"]["commit"][:12]))
    for workload, first in base["workloads"].items():
        second = candidate["workloads"].get(workload)
        if second is None:
            continue
        out("")
        out(workload)
        for metric in benchmark["end_to_end"]:
            a = first["stats"][metric["name"]]
            b = second["stats"][metric["name"]]
            if a is None or b is None:
                out("  %-12s not measured on both sides" % metric["name"])
                regressions += 1
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            regressions += result == "worse"
            out("  %-12s %10.4f (q1 %.4f med %.4f q3 %.4f n %d) -> %10.4f "
                "(q1 %.4f med %.4f q3 %.4f n %d) %s  x%.3f of base, bound "
                "%.2f: %s"
                % (metric["name"], a["value"], a["q1"], a["median"],
                   a["q3"], a["n"], b["value"], b["q1"], b["median"],
                   b["q3"], b["n"], metric["unit"],
                   b["value"] / a["value"], metric["bound"], result))
        shares = first["failed_share"], second["failed_share"]
        result = ("worse" if shares[1] > shares[0]
                  else "better" if shares[1] < shares[0] else "within")
        regressions += result == "worse"
        out("  %-12s %10.6f (%d of %d) -> %10.6f (%d of %d) share, bound "
            "0: %s" % ("failed_share", shares[0], first["failed"],
                       first["attempted"], shares[1], second["failed"],
                       second["attempted"], result))
        differing = []
        differing.extend(
            "fingerprint of input seed %s: %s vs %s" % (
                seed, json.dumps(fingerprint, sort_keys=True),
                json.dumps(second["fingerprints"][seed], sort_keys=True))
            for seed, fingerprint in first["fingerprints"].items()
            if seed in second["fingerprints"]
            and fingerprint != second["fingerprints"][seed])
        layers = first.get("per_layer"), second.get("per_layer")
        if all(layers):
            differing.extend(
                "%s: %s vs %s" % (name, layers[0][name], layers[1][name])
                for name in layers[0]
                if units.get(name) in EXACT_UNITS
                and layers[0][name] != layers[1].get(name))
        for line in differing:
            out("  COUNT DIFFERS  " + line)
        regressions += len(differing)
        if not differing:
            out("  counts and fingerprint equal")
    return regressions


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write("usage: compare.py A.json B.json\n")
        return 2
    try:
        benchmark = load_benchmark()
        sides = []
        for path in argv:
            with open(path) as fh:
                sides.append(json.load(fh))
    except (Refused, OSError, ValueError) as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2
    return 1 if compare(benchmark, sides[0], sides[1], out=print) else 0


if __name__ == "__main__":
    sys.exit(main())
