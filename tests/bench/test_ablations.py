"""The five cheap ablation tables, pinned to the text they print.

Each ablation is data run by one sweep and one renderer, so these pins
hold the sweep, the renderer, and each cell's scenario body at once
(~0.5 s together).  The two replay ablations — aging window and log
optimizations — run the ``replay`` spec, pinned by its golden row.
"""

import pytest

from repro.bench import ablations, facts, tables

PINNED = {
    "chunk": (ablations.CHUNK, """\
Ablation (section 4.3.5): chunk time budget vs foreground miss latency at 9.6 Kb/s
Chunk budget  Foreground miss latency (s)  Backlog drained by (s)
------------  ---------------------------  ----------------------
5s            56.4                         986                   
30s           53.5                         904                   
300s          296.8                        887                   
whole log     845.3                        880                   """),
    "false-sharing": (ablations.FALSE_SHARING, """\
Ablation (section 4.2.2): volume granularity vs validation success (same update load, fewer/larger volumes)
Volumes  Stamp validations successful  Objects saved
-------  ----------------------------  -------------
1        50%                           162          
2        50%                           164          
4        50%                           168          
8        69%                           242          
16       81%                           312          """),
    "header-compression": (ablations.COMPRESSION, """\
Ablation (section 4.1): VJ-style header compression on a 9.6 Kb/s modem
Header bytes saved/packet  SFTP goodput (Kb/s)
-------------------------  -------------------
0                          7.02               
23                         7.18               """),
    "cost": (ablations.COST, """\
Extension (section 8): cost-aware adaptation of the same session on three tariffs
Tariff               Shipped (KB)  Optimized (KB)  CML left (KB)  Money spent
-------------------  ------------  --------------  -------------  -----------
free                 25            172             0              0.00       
cellular-data        0             172             25             0.04       
long-distance-phone  196           0               0              3.12       """),
    "keepalive": (ablations.KEEPALIVE, """\
Ablation (section 4.1): idle keepalive traffic, original layering vs shared liveness (9.6 Kb/s modem)
Scheme      Packets/hour  Bytes/hour
----------  ------------  ----------
shared      61            5804      
duplicated  206           14504     """),
}


@pytest.mark.parametrize("name", PINNED)
def test_ablation_table_text_is_pinned(name):
    ablation, text = PINNED[name]
    assert ablations.render(ablation, ablations.sweep(ablation)).render() \
        == text


def test_the_figure_verb_prints_all_seven_keepalive_last(monkeypatch):
    """``repro figure ablations`` renders every entry of the one
    ablation table, in order, with keepalive appended last."""
    monkeypatch.setattr(ablations, "sweep", lambda ablation, fast: "rows")
    monkeypatch.setattr(ablations, "render",
                        lambda ablation, rows: (ablation, rows))
    printed = [ablation for ablation, _rows
               in tables("ablations", facts("ablations"))]
    assert printed == list(ablations.ABLATIONS)
    assert len(set(printed)) == 7 and printed[-1] is ablations.KEEPALIVE
