"""The experiment harness: one shape of facts per reproduced figure.

Each :data:`FIGURES` module has ``facts(fast)``, which runs the figure
at its full shape (the one EXPERIMENTS.md reports) or its ``@fast``
shape and returns plain JSON numbers keyed by cell, and
``tables(facts)``, which builds its :class:`Table` s.  The two shapes
are the rows ``NAME`` and ``NAME@fast`` of the ``figures`` ledger
(``EXPERIMENTS.json``), and ``repro figure NAME`` prints the tables of
the same facts, so what is printed and what is pinned cannot disagree.
"""

import importlib
import json

from repro.bench.results import Table, fmt_bytes

#: The reproduced figures, each the module ``repro.bench.NAME``.
FIGURES = (
    "transport",            # Figure 1: SFTP vs TCP
    "aging",                # Figure 4: aging window
    "patience",             # Figure 7: patience model
    "validation",           # Figure 8: validation time
    "fleet",                # Figure 9: fleet statistics
    "compressibility",      # Figure 10 histogram
    "segments",             # Figure 11: segment table
    "replay",               # Figures 12-14: trace replay
    "ablations",            # the design-choice sweeps
)

#: The ``figures`` ledger's rows: each figure's full and fast shapes.
ROWS = tuple(row for name in FIGURES for row in (name, name + "@fast"))


def _module(row):
    """The module of ``row`` (``NAME`` or ``NAME@fast``)."""
    return importlib.import_module("repro.bench." + row.partition("@")[0])


def _rounded(value):
    """``value`` with every float rounded to six places."""
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    return round(value, 6) if isinstance(value, float) else value


def facts(row):
    """Run ledger row ``row`` (``NAME`` or ``NAME@fast``); its facts,
    exactly as ``EXPERIMENTS.json`` holds them."""
    raw = _module(row).facts(fast=row.endswith("@fast"))
    return json.loads(json.dumps(_rounded(raw), sort_keys=True))


def tables(row, facts):
    """The :class:`Table` s of ``row``'s ``facts``."""
    return _module(row).tables(facts)


__all__ = ["FIGURES", "ROWS", "Table", "facts", "fmt_bytes", "tables"]
