"""What is printed is what is pinned: the ``figures`` ledger's facts.

``repro figure NAME`` renders the facts of row ``NAME`` (``NAME@fast``
under ``REPRO_FAST=1``), and each measured table of EXPERIMENTS.md is
that text for the committed facts, between ``<!-- figure: NAME -->``
and ``<!-- /figure -->``.  After a ``repro ledger figures --regen``,
``PYTHONPATH=src python tests/bench/test_figures.py`` rewrites them.
"""

import os
import re

import pytest

from repro.analysis import ledger
from repro.bench import FIGURES, facts, tables
from repro.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    os.pardir)
EXPERIMENTS_JSON = os.path.join(ROOT, "EXPERIMENTS.json")
EXPERIMENTS_MD = os.path.join(ROOT, "EXPERIMENTS.md")
BLOCK = re.compile(r"(<!-- figure: (\S+) -->\n```text\n)(.*?)(\n```\n"
                   r"<!-- /figure -->)", re.DOTALL)


def rendered(row, committed):
    """The text ``repro figure`` prints for ``row``'s facts, each line
    right-trimmed."""
    text = "\n\n".join(table.render() for table in tables(row, committed))
    return "\n".join(line.rstrip() for line in text.splitlines())


def test_experiments_md_tables_are_the_committed_facts_rendered():
    committed = ledger.read(EXPERIMENTS_JSON)
    with open(EXPERIMENTS_MD) as fh:
        blocks = BLOCK.findall(fh.read())
    assert sorted(row for _head, row, _text, _tail in blocks) \
        == sorted(FIGURES)
    for _head, row, text, _tail in blocks:
        assert text == rendered(row, committed[row]), row


@pytest.mark.parametrize("row", ["patience", "validation@fast"])
def test_the_figure_verb_prints_the_committed_facts(row, capsys,
                                                    monkeypatch):
    """The verb's live facts are the committed row's, and it prints
    exactly their render (the ``@fast`` row under ``REPRO_FAST=1``)."""
    name, _at, shape = row.partition("@")
    monkeypatch.delenv("REPRO_FAST", raising=False)
    if shape:
        monkeypatch.setenv("REPRO_FAST", "1")
    committed = ledger.read(EXPERIMENTS_JSON)[row]
    assert facts(row) == committed
    assert main(["figure", name]) == 0
    printed = capsys.readouterr().out
    assert printed == "".join("\n" + table.render() + "\n"
                              for table in tables(row, committed))


def rewrite():
    """Rewrite EXPERIMENTS.md's figure blocks from EXPERIMENTS.json."""
    committed = ledger.read(EXPERIMENTS_JSON)
    with open(EXPERIMENTS_MD) as fh:
        text = fh.read()
    text = BLOCK.sub(lambda m: m.group(1) + rendered(m.group(2),
                                                    committed[m.group(2)])
                     + m.group(4), text)
    with open(EXPERIMENTS_MD, "w") as fh:
        fh.write(text)


if __name__ == "__main__":
    rewrite()
