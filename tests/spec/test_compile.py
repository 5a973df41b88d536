"""The spec compiler: the one run entry and its knobs.

The golden fixtures pin the compiled timelines across checkouts; these
tests pin the *wiring* — seeds fold through each spec's seed kind, and
the fault-plan/schedule-log escape hatches function.
"""

from dataclasses import replace

import pytest

from repro.obs import Observatory
from repro.spec.catalog import MOUNT, get
from repro.spec.compile import fleet_config, run_spec, stream_sweep
from repro.spec.model import OpStep, WorkloadSpec
from repro.spec.seeds import master_seed


def test_script_summary_shape():
    result = run_spec(get("outage"))
    for key in ("end_time", "cml_reintegrated", "bytes_shipped",
                "operations", "validation_attempts"):
        assert key in result.summary
    assert result.summary["end_time"] > 0


def test_seed_selects_a_different_universe():
    """A scripted testbed is seed-insensitive by design (the workload
    is fully deterministic); the fleet families actually consume the
    derived streams, so their reports must move with the seed."""
    base = run_spec(get("fleet-golden"), days=0.125)
    other = run_spec(get("fleet-golden"), days=0.125, seed=1)
    assert base.seed != other.seed
    base_rows = [(r.name, r.attempts) for rs in base.reports for r in rs]
    other_rows = [(r.name, r.attempts) for rs in other.reports for r in rs]
    assert base_rows != other_rows


def test_run_spec_seed_folds_through_seed_kind():
    result = run_spec(get("trickle"))
    assert result.seed == master_seed("obs", "trickle", None) == 0
    result = run_spec(get("fleet-golden"), days=0.125)
    assert result.seed == master_seed("perf", "fleet-golden", None)


def test_plan_override_replaces_spec_faults():
    from repro.faults.plan import FaultPlan
    result = run_spec(get("smoke"), plan=FaultPlan([]))
    assert result.summary["faults_injected"] == 0
    assert run_spec(get("smoke")).summary["faults_injected"] > 0


def test_schedule_log_probe_captures_dispatch_keys():
    log = []
    run_spec(get("trickle"), schedule_log=log)
    assert log
    assert all(len(entry) == 3 for entry in log)
    times = [entry[0] for entry in log]
    assert times == sorted(times)


def test_check_invariants_attaches_a_checker():
    observatory = Observatory()
    result = run_spec(get("trickle"), observatory=observatory,
                      check_invariants=True)
    assert result.checkers
    for checker in result.checkers:
        assert checker.check_all().violations == []


def test_fleet_config_figure9_is_the_classic_fleetconfig():
    from repro.spec.fleet import FleetConfig
    config = fleet_config(get("fleet-8"), master=42)
    assert isinstance(config, FleetConfig)
    assert (config.desktops, config.laptops) == (5, 3)
    assert config.days == 2.0
    assert config.seed == 42
    assert fleet_config(get("fleet-8"), master=42, days=0.25).days == 0.25


def test_fleet_config_commuter_carries_params():
    from repro.spec.fleet import CommuterConfig
    config = fleet_config(get("commuter"), master=7, name_prefix="s00-")
    assert isinstance(config, CommuterConfig)
    assert (config.desktops, config.laptops) == (16, 12)
    assert config.work_start == 9.0
    assert config.name_prefix == "s00-"


def test_fleet_run_spec_reports_population():
    result = run_spec(get("fleet-golden"), days=0.125)
    assert result.summary["clients"] == 3
    assert result.reports is not None


def test_summary_and_merged_report_name_the_same_validation_attempts():
    """Figure 9's volume-validation attempts are spelled and counted
    alike by the in-process summary and the merged shard report
    (fleet-golden has no shard plan, so its one fleet is the shard)."""
    from dataclasses import asdict

    from repro.fleetd.executor import ShardResult
    from repro.fleetd.merge import merge_results
    result = run_spec(get("fleet-golden"))
    desktops, laptops = result.reports
    shard = ShardResult(
        index=0, seed=0, desktops=len(desktops), laptops=len(laptops),
        dispatched=0, sim_seconds=0.0,
        reports=[asdict(report) for report in desktops + laptops])
    merged = merge_results("fleet-golden", 0, 0, [], [shard])
    assert result.summary["validation_attempts"] \
        == merged.validation_attempts == 41


def test_invalid_spec_is_rejected_before_running():
    from repro.spec.model import ScenarioSpec, SpecError
    bad = ScenarioSpec(name="bad", kind="testbed", family="script")
    with pytest.raises(SpecError):
        run_spec(bad)


def test_stream_sweep_passes_on_an_instrumented_run():
    observatory = Observatory()
    run_spec(get("trickle"), observatory=observatory)
    assert stream_sweep(observatory) == []


def test_stream_sweep_flags_bad_streams():
    class Event:
        def __init__(self, time, kind):
            self.row = {"time": time, "kind": kind}

        def to_row(self):
            return self.row

    class Fake:
        class trace:
            events = [Event(2.0, "venus_state"), Event(1.0, "not-a-kind")]

    violations = stream_sweep(Fake)
    assert any("monotone-time" in v for v in violations)
    assert any("taxonomy" in v for v in violations)


def test_drain_disconnect_and_validate_ops_and_their_step_ends():
    """``drain`` polls until the CML is empty, ``disconnect`` drops the
    client to emulation at once and ``validate`` runs reconnection
    validation over the wire.  The result carries one end per step, in
    order, and keeps them out of the printed summary."""
    steps = (OpStep("connect"),
             OpStep("write", path=MOUNT + "/work/notes.txt", size=6_000),
             OpStep("drain", seconds=5.0), OpStep("disconnect"),
             OpStep("validate"))
    result = run_spec(replace(get("trickle"),
                              workload=WorkloadSpec(script=steps)))
    ends = result.step_ends
    assert len(ends) == len(steps) and list(ends) == sorted(ends)
    assert ends[2] - ends[1] >= 300.0          # aged A = 300 s, then shipped
    assert result.summary["cml_len"] == 0
    assert result.summary["cml_reintegrated"] == 1
    when, _old, new = result.testbed.venus.state.transitions[-1]
    assert when == ends[3] == ends[2] and new.value == "emulating"
    assert ends[4] > ends[3]
    assert "step_ends" not in result.summary
    assert set(result.summary) == set(run_spec(get("trickle")).summary)


def test_drain_needs_its_poll_period():
    """(Fields outside each op's signature are refused by the
    hypothesis test in ``test_model``, which samples every op.)"""
    assert OpStep("drain").validate("op") == [
        "op: op 'drain' requires 'seconds'"]
