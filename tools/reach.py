"""Which `def`s under src/ do the entry points enter?  (stdlib only)

Usage: python tools/reach.py [--entry NAME ...] [--list] [--report PATH]

Runs every entry point (tier-1, the ledgers, the figures, a smoke line
per ``repro`` verb, CI's differential lines, ``perfbench/run.py
--smoke`` and the examples) in a copy of the checkout whose
``sitecustomize.py`` hooks ``sys.settrace`` (cProfile's ``setprofile``
leaves it alone).  On a code object's first call the hook appends its
file, first line and first executed line to a per-pid file at once:
fork-started pool workers leave through ``os._exit``.  Records match
AST ``def``s by the def or first decorator line.  ``--report`` writes
the first executed lines of tier-1's own process as a coverage.py-shaped
report for ``tools/check_package_coverage.py``.
"""

import argparse, ast, json, os, shlex, shutil, subprocess, sys, tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIGURES = ("transport", "aging", "patience", "validation", "fleet",
           "compressibility", "segments", "replay", "ablations")
FAST, DIFF = "REPRO_FAST=1 ", "REPRO_FAST=1 python tests/sim/differential.py "
ENTRIES = {
    "tier-1": ["python -m pytest -q -p no:cacheprovider -p reach_rearm"],
    "ledgers": ["repro ledger golden", "repro ledger perf --workers 2",
                "repro ledger figures" + "".join(" --row %s@fast" % f for f in FIGURES)],
    "figures": ["repro figure " + name for name in FIGURES],
    "verbs": ["repro spec list", "repro spec show trickle", "repro spec validate --all",
              "repro lint", "repro lint --json", "repro run trickle --out {tmp}/t.jsonl "
              "--metrics-out {tmp}/m.jsonl --check-invariants",
              FAST + "repro run smoke --fingerprint --json {tmp}/s.json",
              FAST + "repro run fleet-32 --shards --workers 2 --verify --json {tmp}/f.json",
              FAST + "repro run commuter --ckpt {tmp}/cc --days 2",
              FAST + "repro run fleet-8 --ckpt {tmp}/ck && repro ckpt extend --out "
              "{tmp}/ck --days +1 && repro ckpt verify --out {tmp}/ck && "
              "repro ckpt info --out {tmp}/ck"]
             + [FAST + "repro run %s --check-invariants" % spec for spec in (
                 "smoke", "fleet-golden", "commuter", "conflict-storm",
                 "doc-archive", "replay")],
    "differential": [
        DIFF + "--scenario trickle --scenario mod:repro.spec.golden:commuter_golden",
        DIFF + "--scenario fleet-32 --tier dispatch --digest",
        DIFF + "--scenario trickle --scenario smoke --scenario "
        "mod:repro.spec.golden:doc_archive_golden --tier stops",
        DIFF + "--scenario trickle --scenario smoke --scenario "
        "mod:repro.spec.golden:commuter_golden --tier metrics --loop plain --loop fast"],
    "perfbench": ["python perfbench/run.py --smoke --trace 1 --workload " + w for w in (
        "fleet-validate", "bulk-transfer", "trickle-replay", "ckpt-obs-fleet")],
    "examples": ["python examples/" + name for name in sorted(
        os.listdir(os.path.join(ROOT, "examples"))) if name.endswith(".py")],
}

HOOK = '''import os, sys, threading
_dir, _seen, _out = os.environ.get("REACH_DIR"), set(), [None, None]
_main = os.getpid() if os.environ.pop("REACH_MAIN", None) else None
def _first_line(frame, event, arg):
    code = frame.f_code
    if event == "line" and frame.f_lineno == code.co_firstlineno:
        return _first_line  # 3.11 may open a multi-line first statement on the def line
    frame.f_trace = None  # one body line per first call; returning None keeps f_trace
    if _out[0] != os.getpid():
        name = ("main-%d" if os.getpid() == _main else "%d") % os.getpid()
        _out[:] = [os.getpid(), open(os.path.join(_dir, name), "a", buffering=1)]
    _out[1].write("%s\\t%d\\t%d\\n" % (code.co_filename, code.co_firstlineno, frame.f_lineno))
def _hook(frame, event, arg):
    if event == "call" and frame.f_code not in _seen and "/src/repro/" in frame.f_code.co_filename:
        _seen.add(frame.f_code)
        return _first_line
def arm():
    sys.settrace(_hook)
    threading.settrace(_hook)
if _dir:
    arm()
'''
REARM = '''import pytest, sitecustomize
@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    sitecustomize.arm()
    yield
    sitecustomize.arm()
'''


def defs(src):
    """``{(path, line): (path, start, qualname, lines)}`` per AST def,
    keyed by its def line and its first decorator line."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", None)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = min([child.lineno] + [d.lineno for d in child.decorator_list])
                entry = (path, start, prefix + name, child.end_lineno - start + 1)
                found[(path, start)] = found[(path, child.lineno)] = entry
            walk(child, path, prefix + name + "." if isinstance(name, str) else prefix)

    for folder, _, names in os.walk(os.path.join(src, "repro")):
        for name in sorted(n for n in names if n.endswith(".py")):
            with open(os.path.join(folder, name)) as handle:
                walk(ast.parse(handle.read()), os.path.join(folder, name), "")
    return found


def run_entry(copy, records, commands):
    """Run one entry's ``&&``-chained commands in order, recording into
    ``records``; a failing command is reported, not fatal."""
    for command in commands.format(tmp=records + ".tmp").split(" && "):
        env = dict(os.environ, REACH_DIR=records, REACH_MAIN="1", PYTHONHASHSEED="0",
                   PYTHONPATH=os.pathsep.join((os.path.join(copy, "src"), copy)))
        words = shlex.split(command)
        while "=" in words[0]:
            key, value = words.pop(0).split("=", 1)
            env[key] = value
        words[:1] = [sys.executable] + (["-m", "repro"] if words[0] == "repro" else [])
        done = subprocess.run(words, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode:
            print("warning: %r exited %d\n%s" % (command, done.returncode,
                                                 done.stderr[-2000:]), file=sys.stderr)


def entered(records, table, main_only=False):
    """``{def: first executed line}`` over one entry's records; with
    ``main_only``, only the processes it started itself."""
    seen = {}
    for name in os.listdir(records):
        if not main_only or name.startswith("main-"):
            with open(os.path.join(records, name)) as handle:
                for path, first, line in (row.split("\t") for row in handle):
                    if (path, int(first)) in table:
                        seen[table[path, int(first)]] = int(line)
    return seen


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entry", action="append", choices=sorted(ENTRIES))
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--report")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        copy = os.path.join(work, "tree")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__"))
        for name, text in (("sitecustomize.py", HOOK), ("reach_rearm.py", REARM)):
            with open(os.path.join(copy, name), "w") as handle:
                handle.write(text)
        jobs = [(name, os.path.join(work, "%s-%d" % (name, index)), command)
                for name in args.entry or sorted(ENTRIES)
                for index, command in enumerate(ENTRIES[name])]
        for _, records, _ in jobs:
            os.makedirs(records + ".tmp")
            os.makedirs(records)
        with ThreadPoolExecutor(2) as pool:
            list(pool.map(lambda job: run_entry(copy, job[1], job[2]), jobs))
        table = defs(os.path.join(copy, "src"))
        tier1, tier1_main, others = set(), {}, set()
        for name, records, _ in jobs:
            (tier1 if name == "tier-1" else others).update(entered(records, table))
            if name == "tier-1":
                tier1_main = entered(records, table, main_only=True)
    everything = set(table.values())
    rel = lambda d: os.path.relpath(d[0], os.path.join(copy, "src"))
    for title, group, listed in (
            ("defs under src/", everything, False),
            ("never entered by any entry point", everything - tier1 - others, True),
            ("entered only by tier-1", tier1 - others, True),
            ("never entered by tier-1", everything - tier1, True),
            ("entered by tier-1 only in child processes", tier1 - set(tier1_main), True)):
        print("%s: %d (%d lines)" % (title, len(group), sum(d[3] for d in group)))
        for d in sorted(group, key=lambda d: (rel(d), d[1])) if args.list and listed else ():
            print("    %s::%s (%d)" % (rel(d), d[2], d[3]))
    if args.report:
        files = {"src/" + rel(d): set() for d in everything}
        for d, line in tier1_main.items():
            files["src/" + rel(d)].add(line)
        with open(args.report, "w") as handle:
            json.dump({"files": {path: {"executed_lines": sorted(lines)}
                                 for path, lines in sorted(files.items())}}, handle)


if __name__ == "__main__":
    main()
