"""The experiment harness.

One module per reproduced table/figure, each exposing a ``run_*``
function that returns structured results plus a formatter that prints
rows shaped like the paper's.  The benchmark suite under
``benchmarks/`` is a thin pytest layer over these functions;
:data:`FIGURES` runs each figure at its shell parameters and is what
``python -m repro figure NAME`` prints::

    python -m repro figure replay
"""

from repro.bench.results import Table, fmt_bytes, fmt_kbps


def _transport():
    from repro.bench import transport
    return [transport.format_table(transport.run_transport_comparison())]


def _aging():
    from repro.bench import aging
    return [aging.format_table(aging.run_aging_analysis())]


def _patience():
    from repro.bench import patience
    return [patience.curve_table(),
            patience.points_table(patience.run_patience_analysis()[1])]


def _validation():
    from repro.bench import validation
    return [validation.format_table(validation.run_validation_comparison())]


def _fleet():
    from repro.bench import fleet
    return fleet.format_tables(*fleet.run_fleet_study(
        fleet.FleetConfig(days=7.0, desktops=8, laptops=6)))


def _compressibility():
    from repro.bench import compressibility
    return [compressibility.format_table(
        compressibility.run_compressibility_study(population=40))]


def _segments():
    from repro.bench import segments
    return [segments.format_table(segments.run_segment_characterization())]


def _replay():
    from repro.bench import replay
    cells = [replay.run_replay_cell("purcell", network, 600.0, 1.0)
             for network in replay.NETWORKS]
    return replay.elapsed_tables(cells) + [replay.cml_data_table(cells)]


def _ablations():
    from repro.bench import ablations
    return [ablations.render(ablation, ablations.sweep(ablation))
            for ablation in ablations.ABLATIONS]


#: Figure name -> zero-argument function returning its ``Table`` s.
FIGURES = {
    "transport": _transport,            # Figure 1: SFTP vs TCP
    "aging": _aging,                    # Figure 4: aging window
    "patience": _patience,              # Figure 7: patience model
    "validation": _validation,          # Figure 8: validation time
    "fleet": _fleet,                    # Figure 9: fleet statistics
    "compressibility": _compressibility,    # Figure 10 histogram
    "segments": _segments,              # Figure 11: segment table
    "replay": _replay,                  # Figures 12-14: trace replay
    "ablations": _ablations,            # the design-choice sweeps
}

__all__ = [
    "FIGURES",
    "Table",
    "fmt_bytes",
    "fmt_kbps",
]
