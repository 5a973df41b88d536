"""perfbench: the benchmark of the Coda simulator, measured from outside.

One command prints every metric by name with unit, direction and
bound, checks the outputs, and writes the result::

    python3 perfbench/run.py --seed 0 --out perfbench/out/result.json

With ``--workload NAME --trace 0|1`` it measures one workload and
prints, as the last line of standard output, the JSON object the
driver's contract asks for.  Metric names, units and bounds are read
from ``BENCHMARK.json`` so the two cannot drift apart.

Protocol: every repetition is a fresh ``python -m perfbench.child``
process, one at a time, started round-robin over the workloads so that
minute-scale drift of the host hits all of them alike.  Untraced
repetitions run until ``--seconds`` of timed region have been
measured; a profiled and a counted repetition follow when tracing.
"""

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
if __package__ in (None, ""):       # run as a script: python3 perfbench/run.py
    sys.path.insert(0, ROOT)

from perfbench.layers import LAYERS     # noqa: E402
from perfbench.reference import NOMINAL, ReferenceProcess   # noqa: E402
from perfbench.spans import durations, self_seconds   # noqa: E402

SCHEMA = "perfbench/1"
OUT = os.path.join(HERE, "out")
#: Knobs that would make a child measure something other than what
#: ``repro spec run`` users get.
SCRUBBED = ("REPRO_QUEUE", "REPRO_POOL", "REPRO_FAST", "REPRO_FULL",
            "REPRO_QUICK")
MIN_REPS = 3            # fewest untraced repetitions a statistic is taken over
#: Repetitions cycle through this many input seeds derived from
#: ``--seed``.  Peak RSS is exact for one input but differs by +-20%
#: between inputs on fleet-validate (a burst of pending timers in some
#: fleets), so one run's median has to see several inputs to be steady
#: from one ``--seed`` to the next.
INPUTS = 5
CHILD_TIMEOUT = 150     # seconds before a repetition is given up as failed
#: The end-to-end metrics, and whether each is a time of this host
#: (reported relative to the reference kernel) or not.
END_TO_END = {"wall_s": True, "cpu_s": True, "setup_s": True,
              "peak_rss_mb": False}


class Refused(Exception):
    """The benchmark cannot run here; the message says why."""


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise Refused("cannot read %s: %s" % (path, exc)) from None


def check_checkout():
    """Refuse to measure a ``repro`` that is not this checkout's.

    Puts this checkout's ``src/`` first on ``sys.path``, so the result
    envelope reads the defaults of the same ``repro`` the children run.
    """
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    spec = importlib.util.find_spec("repro")
    origin = os.path.realpath(spec.origin) if spec and spec.origin else None
    if origin is None or not origin.startswith(os.path.realpath(src) + os.sep):
        raise Refused("repro resolves to %s, not to %s: run from a checkout "
                      "that holds the simulator's source" % (origin, src))


def child_env():
    """The environment repetitions run in: this checkout, no knobs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((os.path.join(ROOT, "src"), ROOT))
    return env


def environment(seed, seconds, scale):
    """The result envelope: what was measured, where, with which defaults."""
    from repro.sim.pool import default_pooling
    from repro.sim.queue import default_kind
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "cpus": os.cpu_count(),
            "platform": platform.platform(), "queue": default_kind(),
            "pooling": default_pooling(), "seed": seed, "seconds": seconds,
            "scale": scale, "commit": commit}


def spawn(workload, seed, mode, scale, tmp):
    """One repetition in a fresh process; always returns a record.

    A child that dies, hangs or prints no record is a failed
    repetition, not a crashed benchmark.
    """
    command = [sys.executable, "-m", "perfbench.child", workload,
               "--seed", str(seed), "--mode", mode, "--scale", scale,
               "--tmp", tmp]
    try:
        done = subprocess.run(command, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        lines = done.stdout.strip().splitlines()
        if done.returncode == 0 and lines:
            return json.loads(lines[-1])
        error = "exit %d: %s" % (done.returncode, done.stderr.strip()[-800:])
    except subprocess.TimeoutExpired:
        error = "no result within %d s" % CHILD_TIMEOUT
    except ValueError as exc:
        error = "unreadable record: %s" % exc
    return {"workload": workload, "mode": mode, "seed": seed, "attempted": 1,
            "failed": 1, "failures": ["child " + error], "fingerprint": None,
            "counters": {}, "spans": []}


def measure(names, seed, seconds, scale, traced, tmp, reference, log):
    """Run the protocol; returns the raw child records per workload.

    Untraced repetitions go round-robin until every workload has
    ``seconds`` of timed region (and ``MIN_REPS`` repetitions; one at
    smoke scale), cycling through ``INPUTS`` input seeds.  ``traced``
    adds one profiled and one counted repetition per workload, both on
    the first input seed.  The ``reference`` kernel is timed before and
    after every repetition; ``ref_s`` is the mean of the two.
    """
    runs = {name: {"timed": [], "profiled": None, "counted": None}
            for name in names}
    after = reference.seconds()

    def repetition(name, input_seed, mode):
        nonlocal after
        rep = spawn(name, input_seed, mode, scale, tmp)
        before, after = after, reference.seconds()
        rep["ref_s"] = (before + after) / 2.0
        log("%-15s %-8s input seed %d: wall %.3f s, reference %.3f s, "
            "%d failed" % (name, mode, input_seed, rep.get("wall_s", 0.0),
                           rep["ref_s"], rep["failed"]))
        return rep

    least = 1 if scale == "smoke" else MIN_REPS
    pending = list(names)
    while pending:
        for name in list(pending):
            timed = runs[name]["timed"]
            timed.append(repetition(
                name, seed * INPUTS + len(timed) % INPUTS, "timed"))
            spent = sum(rep.get("wall_s", 0.0) for rep in timed)
            # A workload that cannot produce a time stops at the floor.
            if len(timed) >= least and (spent >= seconds or not spent):
                pending.remove(name)
    if traced:
        for mode in ("profiled", "counted"):
            for name in names:
                runs[name][mode] = repetition(name, seed * INPUTS, mode)
    return runs


def normalise(rep, metric):
    """A repetition's time as a quiet box would have read it.

    The host's speed wanders by tens of percent for minutes; the
    reference kernel timed beside the repetition wandered with it, so
    ``time * NOMINAL / ref_s`` is steady where the raw time is not.
    """
    return rep[metric] * NOMINAL / rep["ref_s"]


def summarise(values):
    """One metric over the repetitions: median, quartiles, range, n."""
    if not values:
        return None
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values),
            "values": values}


def end_to_end(timed, traced=()):
    """End-to-end metrics from the untraced repetitions, and the failure
    count over every repetition (``traced`` ones are checked, not timed)."""
    stats = {}
    for metric, is_time in END_TO_END.items():
        reps = [rep for rep in timed if metric in rep]
        stats[metric] = summarise(
            [normalise(rep, metric) if is_time else rep[metric]
             for rep in reps])
        if is_time and reps:
            stats[metric]["raw"] = [rep[metric] for rep in reps]
    # Each repetition adds one operation: its fingerprint equals that of
    # the first repetition on the same input seed.  Profiling and
    # observing must not change it either.
    fingerprints = {}
    attempted = failed = 0
    failures, notes = [], []
    for index, rep in enumerate(list(timed) + list(traced)):
        attempted += rep["attempted"] + 1
        failed += rep["failed"]
        failures.extend(rep["failures"])
        notes.extend(note for note in rep.get("notes", ())
                     if note not in notes)
        first = fingerprints.setdefault(str(rep["seed"]), rep["fingerprint"])
        if first is None or rep["fingerprint"] != first:
            failed += 1
            failures.append("repetition %d (%s, input seed %d): fingerprint "
                            "differs from the first on that input"
                            % (index, rep["mode"], rep["seed"]))
    return {"reps": len(timed), "stats": stats, "attempted": attempted,
            "failed": failed, "failed_share": failed / attempted,
            "failures": failures, "notes": notes,
            "fingerprints": fingerprints}


def per_layer(run, wall):
    """Every per-layer metric of one workload, from its traced runs.

    ``wall`` is the untraced ``wall_s`` the ratios are taken against
    (reference-normalised, as are the traced walls).  A metric the
    workload has no business with reads 0.
    """
    profiled, counted = run["profiled"], run["counted"]
    profile = profiled.get("profile") or {
        "layers": {}, "named": {}, "total_s": 0.0, "other_s": 0.0}
    folded = profile["total_s"] - profile["other_s"]
    metrics = {}
    for layer in LAYERS:
        entry = profile["layers"].get(layer, {"self_s": 0.0, "calls": 0})
        metrics[layer + ".self_s"] = entry["self_s"]
        metrics[layer + ".self_share"] = (entry["self_s"] / folded
                                          if folded else 0.0)
        metrics[layer + ".calls"] = entry["calls"]
    for name in ("pickle", "json", "sha256"):
        metrics["py.%s_s" % name] = profile["named"].get(name, 0.0)
    metrics["py.gc_collections"] = profiled.get("gc_collections", 0)
    metrics["profile.overhead_ratio"] = (
        normalise(profiled, "wall_s") / wall
        if wall and "wall_s" in profiled else 0.0)
    metrics["profile.folded_share"] = (folded / profile["total_s"]
                                       if profile["total_s"] else 0.0)

    counters = dict(counted["counters"])
    appended = counters.get("venus.cml_records", 0)
    counters["venus.cml_optimized_share"] = (
        counters.pop("venus.cml_optimized", 0) / appended if appended
        else 0.0)
    counters["sim.events_per_s"] = (counters.get("sim.events", 0) / wall
                                    if wall else 0.0)
    counters["obs.on_wall_ratio"] = (
        normalise(counted, "wall_s") / wall
        if wall and "wall_s" in counted else 0.0)
    metrics.update(counters)

    spans = counted["spans"]
    for metric, span in (("trace.generate_s", "trace.generate"),
                         ("spec.compile_s", "spec.compile"),
                         ("obs.export_s", "obs.export"),
                         ("ckpt.run_s", "ckpt.run"),
                         ("ckpt.extend_s", "ckpt.extend"),
                         ("ckpt.verify_s", "ckpt.verify")):
        metrics[metric] = durations(spans, span)
    return metrics


def build_result(benchmark, runs, env):
    """Fold the raw records into the result document."""
    result = {"schema": SCHEMA, "env": env, "workloads": {}}
    names = [metric["name"] for metric in benchmark["per_layer"]]
    for workload, run in runs.items():
        extra = [run[mode] for mode in ("profiled", "counted")
                 if run[mode] is not None]
        entry = end_to_end(run["timed"], extra)
        if extra:
            wall = entry["stats"]["wall_s"]
            measured = per_layer(run, wall["value"] if wall else 0.0)
            entry["per_layer"] = {name: measured.get(name, 0)
                                  for name in names}
            entry["spans"] = []
            for rep in extra:
                own = self_seconds(rep["spans"])
                entry["spans"].extend(
                    dict(span, rep=rep["mode"], self_s=own[span["id"]])
                    for span in rep["spans"])
        result["workloads"][workload] = entry
    return result


def print_report(benchmark, result, out, timings=True):
    """Every metric by name, with unit, direction and bound.

    ``timings=False`` leaves the end-to-end metrics out: the short
    baseline of a ``--trace 1`` run is no measurement of them.
    """
    specs = {metric["name"]: metric for metric in benchmark["per_layer"]}
    for workload, entry in result["workloads"].items():
        out("")
        out("%s: %d repetition(s), %d operation(s), %d failed"
            % (workload, entry["reps"], entry["attempted"], entry["failed"]))
        for failure in entry["failures"][:10]:
            out("  FAILED  " + failure.strip().splitlines()[-1])
        for note in entry["notes"]:
            out("  note    " + note)
        for seed, fingerprint in entry["fingerprints"].items():
            out("  fingerprint  input seed %s: %s"
                % (seed, json.dumps(fingerprint, sort_keys=True)))
        for metric in benchmark["end_to_end"] if timings else ():
            stats = entry["stats"][metric["name"]]
            if stats is None:
                out("  %-30s not measured" % metric["name"])
                continue
            out("  %-30s %14.4f %-8s median of %d (q1 %.4f q3 %.4f%s); %s "
                "is better, bound %.2f"
                % (metric["name"], stats["value"], metric["unit"],
                   stats["n"], stats["q1"], stats["q3"],
                   "; raw median %.4f" % statistics.median(stats["raw"])
                   if "raw" in stats else "", metric["better"],
                   metric["bound"]))
        out("  %-30s %14.6f %-8s lower is better, bound 0 (any increase "
            "is a regression)" % ("failed_share", entry["failed_share"],
                                  "share"))
        for name, value in entry.get("per_layer", {}).items():
            out("  %-30s %14.4f %-8s %s is better"
                % (name, value, specs[name]["unit"], specs[name]["better"]))


def contract_line(benchmark, entry, trace):
    """The one JSON object the driver reads from the last line."""
    if trace:
        units = {metric["name"]: metric["unit"]
                 for metric in benchmark["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in entry["per_layer"].items()}
    else:
        metrics = {}
        for metric in benchmark["end_to_end"]:
            stats = entry["stats"][metric["name"]]
            if stats is None:
                raise Refused("no repetition of the workload produced %s"
                              % metric["name"])
            metrics[metric["name"]] = {"value": stats["value"],
                                       "unit": metric["unit"]}
    return json.dumps({"correct": entry["failed"] == 0,
                       "attempted": entry["attempted"],
                       "failed": entry["failed"], "metrics": metrics})


def write_outputs(result, out_path):
    """Write the result document and one span file per workload."""
    for workload, entry in result["workloads"].items():
        spans = entry.pop("spans", None)
        if spans is not None:
            path = os.path.join(OUT, "trace-%s.json" % workload)
            with open(path, "w") as fh:
                json.dump({"workload": workload, "seed": result["env"]["seed"],
                           "spans": spans}, fh, indent=1)
                fh.write("\n")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="measure this workload only and "
                        "print the driver's JSON object as the last line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="timed seconds to "
                        "measure per workload (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer "
                        "metrics over a short baseline; default: both")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test scale: tiny inputs, one repetition")
    parser.add_argument("--out", help="write the result JSON here",
                        default=os.path.join(OUT, "result.json"))
    args = parser.parse_args(argv)
    for knob in SCRUBBED:
        os.environ.pop(knob, None)
    os.environ["PYTHONHASHSEED"] = "0"
    try:
        benchmark = load_benchmark()
        check_checkout()
        known = [workload["name"] for workload in benchmark["workloads"]]
        if args.workload is not None and args.workload not in known:
            raise Refused("unknown workload %r (have %s)"
                          % (args.workload, ", ".join(known)))
        names = [args.workload] if args.workload else known
        scale = "smoke" if args.smoke else "full"
        seconds = (benchmark["run_seconds"] if args.seconds is None
                   else args.seconds)
        if args.smoke or args.trace == 1:
            seconds = 0     # the floor of repetitions is baseline enough
        os.makedirs(OUT, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
        try:
            with ReferenceProcess(child_env(), ROOT) as reference:
                runs = measure(
                    names, args.seed, seconds, scale, args.trace != 0, tmp,
                    reference, log=lambda line: sys.stderr.write(line + "\n"))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        result = build_result(benchmark, runs,
                              environment(args.seed, seconds, scale))
        print_report(benchmark, result, out=print, timings=args.trace != 1)
        line = (contract_line(benchmark, result["workloads"][args.workload],
                              args.trace)
                if args.workload and args.trace is not None else None)
        write_outputs(result, args.out)
    except Refused as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2
    if line is not None:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
