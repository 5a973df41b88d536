"""Figure 9: observed volume validation statistics from a client fleet.

The fleet — its world, lives, op mix and per-client reports — is
:mod:`repro.spec.fleet`; this module keeps each group's reports and
means as facts and prints them as the paper's two tables.
"""

from repro.bench.results import Table
from repro.spec.fleet import FleetConfig, run_fleet_study

__all__ = ["FleetConfig", "facts", "run_fleet_study", "tables"]

#: A report's columns: (header, fact, %-format of a client, of the mean).
COLUMNS = (("Missing Stamp", "missing_pct", "%.0f%%", "%.1f%%"),
           ("Validation Attempts", "attempts", "%d", "%.0f"),
           ("Fraction Successful", "success_pct", "%.0f%%", "%.1f%%"),
           ("Objs per Success", "objs_per_success", "%.0f", "%.0f"))
GROUPS = {"desktops": "(a) Desktops", "laptops": "(b) Laptops"}


def facts(fast):
    """16 desktops and 10 laptops over 10 days (``@fast``: 4 and 2
    over one): per group, each client's report and their means."""
    config = FleetConfig(desktops=4, laptops=2, days=1.0) if fast \
        else FleetConfig(days=10.0)
    found = {}
    for group, reports in zip(GROUPS, run_fleet_study(config)):
        clients = {r.name: {key: getattr(r, key) for _h, key, _c, _m
                            in COLUMNS} for r in reports}
        found[group] = {"clients": clients, "mean": {
            key: sum(c[key] for c in clients.values()) / (len(clients) or 1)
            for _h, key, _c, _m in COLUMNS}}
    return found


def tables(facts):
    tables = []
    for group, title in GROUPS.items():
        clients, mean = facts[group]["clients"], facts[group]["mean"]
        table = Table(
            "Figure 9 %s: Observed Volume Validation Statistics" % title,
            ["Client"] + [header for header, _k, _c, _m in COLUMNS])
        for name in sorted(clients):
            table.add(name, *(fmt % clients[name][key]
                              for _h, key, fmt, _m in COLUMNS))
        table.add("Mean", *(fmt % mean[key] for _h, key, _c, fmt in COLUMNS))
        tables.append(table)
    return tables
