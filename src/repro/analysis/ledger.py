"""The ledger machine: committed facts, re-derived and diffed, no tolerance.

A ledger is a JSON file of facts that are pure functions of the tree:
regenerating it on any host is a no-op, so any difference is a change
in what the code does.  One machine serves every table
(``repro ledger golden|perf``):

* ``golden`` — ``tests/golden/timelines.json``: the sha256 and event
  count of each pinned obs timeline, as two perturbed child
  interpreters agree it (:mod:`repro.analysis.golden`);
* ``perf`` — ``BENCH_perf.json``: events dispatched, simulated seconds,
  digests and counts of each macro-scenario (:mod:`repro.perf`).

A :class:`Table` names its rows in order, the rows that run a shard
plan, and one ``facts(names, workers)`` generator that yields
``(name, facts)`` for the selected rows as each is known, so a long
table streams.  Both files have one shape, ``{"schema":
"repro.ledger/1", "rows": {name: facts}}``, and one rule set:

* a check (the default) re-runs the selected rows (default: all) and
  fails with one ``row.field: committed → live`` line per differing
  leaf; a row on file that the table no longer names is a difference;
* a regen rewrites only the rows it ran, keeps every other row the
  table names, drops the ones it does not, and prints the same lines
  or ``no fields moved``;
* an unknown row, another schema, and — for a check — a missing file
  or a selected row the file lacks are usage errors;
* ``workers`` goes only to shard-plan rows, and is a usage error when
  no selected row runs one;
* a table that cannot trust its facts raises :class:`RowFailure`: the
  run prints why, exits 1 and writes nothing.

:func:`read` and :func:`write` are the only code that opens a ledger
file.
"""

import json
import os
from dataclasses import dataclass

SCHEMA = "repro.ledger/1"

ABSENT = "(absent)"


class RowFailure(Exception):
    """A table's live facts cannot be trusted; the message says why."""


@dataclass(frozen=True)
class Table:
    """One ledger: its name, committed file, rows and their facts."""

    name: str
    path: str               # repo-relative; the CLI runs from the root
    rows: tuple             # row names, in table order
    facts: object           # (names, workers) -> iter of (name, facts)
    pooled: frozenset = frozenset()     # rows that run a shard plan


def _golden():
    from repro.analysis.golden import GOLDEN_SCENARIOS, probe
    return Table("golden", os.path.join("tests", "golden", "timelines.json"),
                 GOLDEN_SCENARIOS, probe)


def _perf():
    from repro.perf import SCENARIOS, run_perf, takes_workers
    pooled = frozenset(filter(takes_workers, SCENARIOS))

    def facts(names, workers):
        for name in names:
            yield name, run_perf(
                name, workers=workers if name in pooled else None)
    return Table("perf", "BENCH_perf.json", tuple(SCENARIOS), facts, pooled)


#: Table name -> its builder (building imports the rows' code).
TABLES = {"golden": _golden, "perf": _perf}


def read(path):
    """The rows on file, ``{name: facts}``; ValueError for another schema."""
    with open(path) as fh:
        ledger = json.load(fh)
    schema = ledger.get("schema") if isinstance(ledger, dict) else None
    if schema != SCHEMA:
        raise ValueError("schema %r, want %r" % (schema, SCHEMA))
    return ledger["rows"]


def write(rows, path):
    """Write ``{name: facts}`` as a ledger file at ``path``."""
    with open(path, "w") as fh:
        json.dump({"schema": SCHEMA, "rows": rows}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")


def leaves(facts, prefix):
    """``(dotted.path, value)`` for every leaf under ``facts``."""
    if not isinstance(facts, dict):
        yield prefix, facts
        return
    for key in sorted(facts):
        yield from leaves(facts[key], "%s.%s" % (prefix, key))


def diff(committed, live):
    """One ``row.field: committed → live`` line per differing leaf.

    ``committed`` and ``live`` are ``{row: facts}``; a leaf on one side
    only reads ``(absent)`` on the other.  No tolerance.
    """
    old = {path: value for name, facts in committed.items()
           for path, value in leaves(facts, name)}
    new = {path: value for name, facts in live.items()
           for path, value in leaves(facts, name)}
    return ["%s: %s → %s" % (path, old.get(path, ABSENT),
                             new.get(path, ABSENT))
            for path in sorted(old.keys() | new.keys())
            if old.get(path, ABSENT) != new.get(path, ABSENT)]


def prepare(name, rows=None, workers=None, path=None, regen=False):
    """Validate one invocation: ``(table, row names, path, committed)``.

    Raises ValueError naming the problem for every usage error of the
    rule set, before anything runs.
    """
    table = TABLES[name]()
    names = list(dict.fromkeys(rows or table.rows))
    unknown = [row for row in names if row not in table.rows]
    if unknown:
        raise ValueError("unknown row %s (have %s)" % (
            ", ".join(map(repr, unknown)), ", ".join(table.rows)))
    if workers is not None and table.pooled.isdisjoint(names):
        raise ValueError("--workers: none of %s runs a shard plan"
                         % ", ".join(names))
    path = path or table.path
    hint = "run: python -m repro ledger %s --regen" % name
    try:
        committed = read(path)
    except FileNotFoundError:
        if not regen:
            raise ValueError("no ledger at %s (%s)" % (path, hint)) from None
        committed = {}
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None
    lacking = [row for row in names if row not in committed]
    if lacking and not regen:
        raise ValueError("%s holds no row %s (%s)"
                         % (path, ", ".join(lacking), hint))
    return table, names, path, committed


def run(table, names, path, committed, workers=None, regen=False):
    """Run ``names``, print their facts, then check or regen; exit code."""
    live = {}
    try:
        for name, facts in table.facts(names, workers):
            live[name] = json.loads(json.dumps(facts))  # as the file holds it
            for leaf in leaves(live[name], name):
                print("%s: %s" % leaf, flush=True)
    except RowFailure as exc:
        print(exc)
        if regen:
            print("refused to pin: %s left as it was" % path)
        return 1
    kept = {name: facts for name, facts in committed.items()
            if name in table.rows}
    # Compared: the rows run, and the rows the table no longer names.
    moved = diff({name: facts for name, facts in committed.items()
                  if name in live or name not in table.rows}, live)
    if regen:
        write({**kept, **live}, path)
        header = ("%d field(s) moved:" % len(moved) if moved
                  else "no fields moved")
        footer = "wrote %s" % path
    elif moved:
        header = ("%d field(s) differ from %s (committed → live):"
                  % (len(moved), path))
        footer = ("if the change is intentional, regen with: "
                  "python -m repro ledger %s --regen" % table.name)
    else:
        header, footer = "%d row(s) match %s" % (len(names), path), None
    print(header)
    for line in moved:
        print("  " + line)
    if footer:
        print(footer)
    return 1 if moved and not regen else 0
