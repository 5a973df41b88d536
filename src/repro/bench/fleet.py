"""Figure 9: observed volume validation statistics from a client fleet.

The fleet — its world, lives, op mix and per-client reports — is
:mod:`repro.spec.fleet`; this module prints the reports as the paper's
two tables, desktops and laptops.
"""

from repro.bench.results import Table
from repro.spec.fleet import FleetConfig, run_fleet_study

__all__ = ["FleetConfig", "format_tables", "run_fleet_study"]


def format_tables(desktops, laptops):
    tables = []
    for title, reports in (("(a) Desktops", desktops),
                           ("(b) Laptops", laptops)):
        table = Table(
            "Figure 9 %s: Observed Volume Validation Statistics" % title,
            ["Client", "Missing Stamp", "Validation Attempts",
             "Fraction Successful", "Objs per Success"])
        for report in sorted(reports, key=lambda r: r.name):
            table.add(report.name, "%.0f%%" % report.missing_pct,
                      report.attempts, "%.0f%%" % report.success_pct,
                      "%.0f" % report.objs_per_success)
        n = len(reports) or 1
        table.add("Mean",
                  "%.1f%%" % (sum(r.missing_pct for r in reports) / n),
                  "%.0f" % (sum(r.attempts for r in reports) / n),
                  "%.1f%%" % (sum(r.success_pct for r in reports) / n),
                  "%.0f" % (sum(r.objs_per_success for r in reports) / n))
        tables.append(table)
    return tables
