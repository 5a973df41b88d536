"""``repro spec`` (list/show/validate) and ``repro run`` in-process:
exit codes, error listings, refused flags, the one REPRO_FAST rule."""

import json

import pytest

from repro.cli import _fast_variant, build_parser, main
from repro.spec import catalog
from repro.spec.model import ScenarioSpec
from tests.conftest import exits_2


def test_list_names_every_shipped_spec(capsys):
    assert main(["spec", "list"]) == 0
    out = capsys.readouterr().out
    for name in catalog.CATALOG:
        assert name in out


def test_show_emits_the_canonical_document(capsys):
    assert main(["spec", "show", "trickle"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == catalog.get("trickle").to_dict()


def test_show_unknown_name_lists_choices(capsys):
    err = exits_2(["spec", "show", "nope"], capsys)
    assert "unknown spec" in err
    assert "trickle" in err and "commuter" in err


def test_validate_all_passes_on_the_shipped_catalogue(capsys):
    assert main(["spec", "validate", "--all"]) == 0
    out = capsys.readouterr().out
    assert "%d spec(s) valid" % len(catalog.CATALOG) in out


def test_validate_named_specs(capsys):
    assert main(["spec", "validate", "trickle", "commuter"]) == 0
    out = capsys.readouterr().out
    assert "trickle" in out and "commuter" in out


def test_validate_requires_names_or_all(capsys):
    assert "--all" in exits_2(["spec", "validate"], capsys)


def test_validate_unknown_name_lists_choices(capsys):
    assert "unknown spec" in exits_2(["spec", "validate", "nope"], capsys)


def test_validate_all_fails_listing_per_spec_errors(capsys, monkeypatch):
    broken = ScenarioSpec(name="Broken Name", kind="testbed",
                          family="script")
    monkeypatch.setitem(catalog.CATALOG, "broken", broken)
    assert main(["spec", "validate", "--all"]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out
    assert "name: must match" in out
    assert "workload.script" in out
    assert "1 of %d spec(s) invalid" % len(catalog.CATALOG) in out


def test_run_prints_the_summary(capsys):
    assert main(["run", "outage"]) == 0
    out = capsys.readouterr().out
    assert "cml_reintegrated" in out
    assert "Observability summary" in out


def test_run_unknown_name_lists_choices(capsys, tmp_path):
    """One unknown-name error: every mode exits 2, on stderr, listing
    the whole catalogue."""
    for mode in ([], ["--shards"], ["--ckpt", str(tmp_path / "ck")]):
        err = exits_2(["run", "nope"] + mode, capsys)
        assert "unknown spec 'nope'" in err
        assert all(name in err for name in catalog.CATALOG)
    assert not (tmp_path / "ck").exists()


REFUSED = [
    (["trickle", "--days", "3"], "--days", "testbed spec"),
    (["trickle", "--shards"], "--shards", "testbed spec"),
    (["doc-archive", "--ckpt", "ck"], "--ckpt", "testbed spec"),
    (["smoke", "--workers", "2"], "--workers", "testbed spec"),
    (["smoke", "--verify"], "--verify", "testbed spec"),
    (["fleet-golden", "--shards"], "--shards", "no shard plan"),
    (["fleet-golden", "--ckpt", "ck"], "--ckpt", "no shard plan"),
    (["fleet-8", "--shards", "--ckpt", "ck"], "--shards", "pick one"),
    (["fleet-8", "--workers", "0"], "--workers", "--shards or --ckpt"),
    (["fleet-8", "--ckpt", "ck", "--verify"], "--verify", "needs --shards"),
    (["fleet-8", "--shards", "--day-seconds", "600"], "--day-seconds",
     "needs --ckpt"),
    (["fleet-8", "--ckpt", "ck", "--days", "1.5"], "--days", "whole day"),
    (["fleet-8", "--out", "t.jsonl"], "--out", "testbed spec"),
    (["fleet-8", "--shards", "--metrics-out", "m.jsonl"], "--metrics-out",
     "testbed spec"),
    (["fleet-8", "--ckpt", "ck", "--fingerprint"], "--fingerprint",
     "testbed spec"),
    (["fleet-8", "--shards", "--check-invariants"], "--check-invariants",
     "in-process"),
    (["fleet-8", "--ckpt", "ck", "--json", "r.json"], "--json",
     "manifest.json"),
]


@pytest.mark.parametrize("argv, flag, why", REFUSED,
                         ids=[" ".join(row[0]) for row in REFUSED])
def test_run_refuses_inapplicable_flags(argv, flag, why, capsys, tmp_path,
                                        monkeypatch):
    """Refused, never ignored: exit 2 naming the flag and the reason,
    before anything runs or is written."""
    monkeypatch.chdir(tmp_path)
    err = exits_2(["run"] + argv, capsys)
    assert "repro run %s: %s: " % (argv[0], flag) in err
    assert why in err
    assert list(tmp_path.iterdir()) == []


BAD_NUMBERS = [
    (["run", "fleet-8", "--shards", "--workers", "-1"], "--workers", ">= 0"),
    (["run", "fleet-8", "--days", "-1"], "--days", "> 0"),
    (["run", "fleet-8", "--ckpt", "ck", "--days", "0"], "--days", "> 0"),
    (["run", "fleet-8", "--ckpt", "ck", "--day-seconds", "0"],
     "--day-seconds", "> 0"),
    (["run", "fleet-8", "--ckpt", "ck", "--day-seconds", "-5"],
     "--day-seconds", "> 0"),
    (["run", "fleet-8", "--ckpt", "ck", "--workers", "-2"], "--workers",
     ">= 0"),
    (["ckpt", "extend", "--out", "ck", "--days", "0"], "--days", "> 0"),
    (["ckpt", "extend", "--out", "ck", "--workers", "-1"], "--workers",
     ">= 0"),
    (["ledger", "perf", "--workers", "-1"], "--workers", ">= 0"),
]


@pytest.mark.parametrize("argv, flag, bound", BAD_NUMBERS,
                         ids=[" ".join(row[0]) for row in BAD_NUMBERS])
def test_bad_numbers_are_usage_errors(argv, flag, bound, capsys, tmp_path,
                                      monkeypatch):
    """A count or a duration out of range exits 2 naming the flag, before
    anything runs: no traceback, no empty run, no store directory."""
    monkeypatch.chdir(tmp_path)
    err = exits_2(argv, capsys)
    assert "argument %s: must be %s" % (flag, bound) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", [
    spec.name for spec in catalog.shipped()
    if spec.clients.desktops + spec.clients.laptops <= 64])
def test_run_exits_0_for_every_spec_at_smoke_scale(name, monkeypatch,
                                                   capsys):
    monkeypatch.setenv("REPRO_FAST", "1")
    assert main(["run", name]) == 0
    assert "spec %s " % name in capsys.readouterr().out


def test_run_check_invariants_reports_checks(capsys):
    assert main(["run", "trickle", "--check-invariants"]) == 0
    out = capsys.readouterr().out
    assert "invariants:" in out
    assert "0 violation(s)" in out


def test_run_figure9_fleet_honours_check_invariants(capsys, monkeypatch):
    """The Figure 9 family attaches live checkers like the commuter."""
    monkeypatch.setenv("REPRO_FAST", "1")
    assert main(["run", "fleet-golden", "--check-invariants"]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("invariants:"))
    checkers = int(line.split()[1])
    assert checkers >= 1
    assert line.endswith(" 0 violation(s)")


def test_run_json_writes_the_report(capsys, tmp_path):
    out_path = tmp_path / "spec.json"
    assert main(["run", "trickle", "--json", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["spec"] == catalog.get("trickle").to_dict()
    assert "cml_reintegrated" in payload["summary"]


def test_run_fleet_spec_with_days_override(capsys):
    assert main(["run", "fleet-golden", "--days", "0.125"]) == 0
    out = capsys.readouterr().out
    assert "clients" in out


def fast(monkeypatch, *argv):
    """``_fast_variant`` as ``REPRO_FAST=1 repro run <argv>`` applies it."""
    monkeypatch.setenv("REPRO_FAST", "1")
    args = build_parser().parse_args(["run"] + list(argv))
    return _fast_variant(catalog.get(args.spec), args)


def test_fast_variant_scales_fleet_days(monkeypatch):
    eighth = catalog.get("fleet-8").duration / 8.0
    assert fast(monkeypatch, "fleet-8")[1] == eighth
    assert fast(monkeypatch, "fleet-8", "--shards")[1] == eighth
    assert fast(monkeypatch, "fleet-8", "--days", "0.5")[1] == 0.5
    # A checkpointed run shrinks the day unit, not the unit count.
    assert fast(monkeypatch, "fleet-8", "--ckpt", "ck")[1:] \
        == (None, 10_800.0)
    assert fast(monkeypatch, "fleet-8", "--ckpt", "ck",
                "--day-seconds", "600")[2] == 600.0


def test_fast_variant_reshapes_the_commuter_fleet(monkeypatch):
    """A days/8 window would miss both commute edges; the commuter's
    fast shape shrinks the fleet and keeps the day long enough to
    cover the morning and evening commutes — sharded too, where only
    the days apply (the shard plan is a function of the name)."""
    shape = catalog.FAST_FLEET["commuter"]
    spec, days, _ = fast(monkeypatch, "commuter")
    assert (spec.clients.desktops, spec.clients.laptops) \
        == (shape["desktops"], shape["laptops"])
    assert days == shape["days"]
    assert days * 24.0 > spec.params_dict()["work_end"]
    spec, days, _ = fast(monkeypatch, "commuter", "--shards")
    assert spec == catalog.get("commuter")
    assert days == shape["days"]
    assert fast(monkeypatch, "commuter", "--days", "0.25")[1] == 0.25


def test_fast_commuter_reports_its_days_in_both_modes(monkeypatch, capsys):
    """0.75 day in-process and sharded — not the 0.125 day the sharded
    door used to run, which misses both commute edges."""
    monkeypatch.setenv("REPRO_FAST", "1")
    assert main(["run", "commuter"]) == 0
    assert "simulation time: 64800 s" in capsys.readouterr().out
    assert main(["run", "commuter", "--shards"]) == 0
    assert "0.75 day(s) each" in capsys.readouterr().out


def test_fast_variant_applies_family_params(monkeypatch):
    spec, days, _ = fast(monkeypatch, "conflict-storm")
    assert spec.params_dict()["writers"] \
        == catalog.FAST_PARAMS["conflict-storm"]["writers"]
    assert days is None
    assert fast(monkeypatch, "trickle")[0] == catalog.get("trickle")


def test_fast_variant_is_identity_without_the_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAST", raising=False)
    args = build_parser().parse_args(["run", "conflict-storm"])
    assert _fast_variant(catalog.get("conflict-storm"), args) \
        == (catalog.get("conflict-storm"), None, None)


def test_repro_cli_delegates_to_spec(capsys):
    """``spec`` is an ordinary nested subparser: it needs a subcommand,
    and ``run`` is no longer one of them."""
    exits_2(["spec"], capsys)
    assert "invalid choice: 'run'" in exits_2(["spec", "run", "trickle"],
                                              capsys)
