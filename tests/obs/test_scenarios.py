"""Scenario runs, the determinism regression, and the export flags of
``repro run``."""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.obs import Observatory
from repro.spec.catalog import get
from repro.spec.compile import fingerprint, run_spec
from repro.spec.model import OpStep


class TestDeterminism:
    """Observation must not perturb the simulation (the tentpole
    guarantee): with the null recorder and with a live observatory the
    kernel dispatches the *same events in the same order* and ends in
    the same externally visible state.
    """

    @pytest.mark.parametrize("name", ["outage", "trickle"])
    def test_instrumented_run_is_schedule_identical(self, name):
        # Fifteen idle minutes past the script's end, while the
        # daemons keep ticking: the outage script alone dispatches
        # under 500 events since a packet costs three, five idle
        # minutes no longer reach 500 since the trickle daemon parks
        # while the client hoards, and ten no longer do since a ping
        # costs eight dispatches, not eleven (488).
        spec = get(name)
        spec = replace(spec, workload=replace(
            spec.workload, script=spec.workload.script
            + (OpStep(op="sleep", seconds=900.0),)))
        bare_schedule = []
        bare = run_spec(spec, schedule_log=bare_schedule).testbed

        observatory = Observatory()
        live_schedule = []
        live = run_spec(spec, observatory=observatory,
                        schedule_log=live_schedule).testbed

        assert len(bare_schedule) > 500     # the probe actually probed
        assert bare_schedule == live_schedule
        assert fingerprint(bare) == fingerprint(live)
        # And the live run really observed things.
        assert len(observatory.trace.events) > 0
        assert len(observatory.metrics) > 0

    def test_two_null_runs_identical(self):
        first = run_spec(get("trickle")).testbed
        second = run_spec(get("trickle")).testbed
        assert fingerprint(first) == fingerprint(second)


class TestTrickleScenario:

    @pytest.fixture(scope="class")
    def observed(self):
        observatory = Observatory()
        testbed = run_spec(get("trickle"), observatory=observatory).testbed
        return observatory, testbed

    def test_required_event_kinds_recorded(self, observed):
        observatory, _testbed = observed
        kinds = set(observatory.trace.counts())
        assert {"rpc_send", "rpc_reply", "cache_hit", "cache_miss",
                "cml_append", "reintegration_chunk", "fragment",
                "validation_rpc", "state_transition"} <= kinds

    def test_metrics_agree_with_component_stats(self, observed):
        observatory, testbed = observed
        metrics = observatory.metrics
        link = testbed.link.stats()
        sent = metrics.total("link.packets_sent")
        delivered = metrics.total("link.packets_delivered")
        assert sent == link.packets_sent
        assert delivered == link.packets_delivered
        assert metrics.total("link.bytes_sent") == link.bytes_sent
        trickle = testbed.venus.trickle.stats
        assert metrics.total("reintegration.fragments") \
            == trickle.fragments_shipped
        committed = metrics.find("reintegration.chunks",
                                 node=testbed.venus.node,
                                 status="committed")
        assert committed.value == trickle.chunks_committed
        validation = testbed.venus.validator.stats
        assert metrics.find("validation.rpcs", node=testbed.venus.node,
                            kind="volume").value > 0
        assert metrics.total("validation.volumes") == validation.attempts

    def test_timeline_times_monotonic(self, observed):
        observatory, testbed = observed
        times = [event.time for event in observatory.trace.events]
        assert times == sorted(times)
        assert times[-1] <= testbed.sim.now

    def test_cml_gauge_drains_to_zero(self, observed):
        observatory, testbed = observed
        gauge = observatory.metrics.find("cml.length",
                                         node=testbed.venus.node)
        assert gauge is not None
        assert gauge.max_value >= 2     # draft + results at least
        assert gauge.value == len(testbed.venus.cml)

    def test_uninstall_after_run(self, observed):
        observatory, testbed = observed
        # The observatory stays attached to the finished testbed's sim.
        assert testbed.sim.obs is observatory


class TestOutageScenario:

    def test_link_flaps_recorded(self):
        observatory = Observatory()
        run_spec(get("outage"), observatory=observatory)
        counts = observatory.trace.counts()
        assert counts.get("link_down", 0) >= 1
        assert counts.get("link_up", 0) >= 1
        assert observatory.metrics.total("link.transitions") >= 2

    def test_bytes_dropped_while_down_surface_in_summary(self):
        from repro.obs import report
        observatory = Observatory()
        testbed = run_spec(get("outage"), observatory=observatory).testbed
        dropped = observatory.metrics.total("link.bytes_dropped")
        assert dropped > 0
        assert dropped == testbed.link.stats().bytes_dropped_down
        assert "link.bytes_dropped" in report.summary(observatory)


def test_unknown_scenario_raises():
    with pytest.raises(ValueError, match="unknown spec 'nope'"):
        get("nope")


class TestObsCli:

    def test_obs_command_writes_timeline_and_summary(self, tmp_path, capsys):
        out = tmp_path / "timeline.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        assert main(["run", "trickle", "--out", str(out),
                     "--metrics-out", str(metrics)]) == 0
        printed = capsys.readouterr().out
        assert "Observability summary" in printed
        assert "Links (per direction)" in printed
        assert "rpc.latency_seconds" in printed
        assert "hit ratio" in printed
        assert "Client modify log" in printed
        assert "Validation RPCs" in printed
        rows = [json.loads(line)
                for line in out.read_text().splitlines() if line]
        assert len(rows) > 20
        assert {"time", "kind"} <= set(rows[0])
        metric_rows = [json.loads(line)
                       for line in metrics.read_text().splitlines()]
        assert {"metric", "type", "labels"} <= set(metric_rows[0])

    def test_obs_command_summary_only(self, capsys):
        assert main(["run", "trickle"]) == 0
        assert "Event mix" in capsys.readouterr().out
