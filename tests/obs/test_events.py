"""Trace recorder semantics: taxonomy, ordering, the null observatory."""

import pytest

from repro.obs.events import EVENT_KINDS, TraceEvent, TraceRecorder
from repro.obs.observatory import NULL_OBS, Observatory
from repro.obs.report import summary
from repro.sim import Simulator


class TestTraceRecorder:

    def test_records_in_order(self):
        recorder = TraceRecorder()
        recorder.record("link_down", 1.0, link="a->b")
        recorder.record("link_up", 2.0, link="a->b")
        assert [e.kind for e in recorder.events] == ["link_down", "link_up"]
        assert recorder.events[0].fields == {"link": "a->b"}

    def test_unknown_kind_raises(self):
        recorder = TraceRecorder()
        with pytest.raises(ValueError):
            recorder.record("rpc_sned", 0.0)

    def test_by_kind_and_counts(self):
        recorder = TraceRecorder()
        recorder.record("cache_hit", 1.0)
        recorder.record("cache_miss", 2.0)
        recorder.record("cache_hit", 3.0)
        assert recorder.counts() == {"cache_hit": 2, "cache_miss": 1}

    def test_field_named_kind_survives_export_row(self):
        recorder = TraceRecorder()
        recorder.record("validation_rpc", 1.0, scope="volume", kind="x")
        row = recorder.events[0].to_row()
        assert row["kind"] == "validation_rpc"
        assert row["field_kind"] == "x"

    def test_taxonomy_covers_instrumented_kinds(self):
        required = {"rpc_send", "rpc_reply", "retransmit", "link_up",
                    "link_down", "cache_hit", "cache_miss", "cml_append",
                    "reintegration_chunk", "validation_rpc",
                    "state_transition"}
        assert required <= EVENT_KINDS


class TestNullRecorder:

    def test_is_inert(self):
        """An uninstrumented run leaves the shared null observatory
        without state: there is nowhere to record into."""
        sim = Simulator()

        def body():
            yield sim.sleep(1.0)

        sim.run(sim.process(body()))
        assert sim.obs is NULL_OBS and vars(NULL_OBS) == {}


class TestObservatory:

    def test_event_stamped_with_sim_time(self):
        sim = Simulator()
        observatory = Observatory(sim)
        assert sim.obs is observatory

        def body():
            yield sim.sleep(7.0)

        sim.run(sim.process(body()))
        observatory.event("cache_hit", node="x")
        assert observatory.trace.events[-1].time == 7.0

    def test_time_is_zero_until_installed(self):
        observatory = Observatory()
        assert observatory.time() == 0.0
        observatory.event("cache_hit")
        assert observatory.trace.events[0].time == 0.0

    def test_uninstall_restores_null(self):
        sim = Simulator()
        observatory = Observatory()
        observatory.install(sim)
        observatory.uninstall()
        assert sim.obs is NULL_OBS
        observatory.uninstall()     # idempotent

    def test_simulator_defaults_to_null(self):
        sim = Simulator()
        assert sim.obs is NULL_OBS
        assert not sim.obs.enabled

    def test_null_observatory_is_inert(self):
        """Off means nothing to call: every instrumentation site checks
        ``enabled`` before it reaches ``metrics``, ``trace`` or ``event``."""
        assert not NULL_OBS.enabled
        assert not any(hasattr(NULL_OBS, name)
                       for name in ("metrics", "trace", "event", "time"))

    def test_event_kind_validated_even_when_live(self):
        observatory = Observatory()
        with pytest.raises(ValueError):
            observatory.event("no_such_kind")

    def test_summary_delegates_to_report(self):
        observatory = Observatory()
        observatory.metrics.counter("cache.hits", node="x").inc()
        assert "Observability summary" in summary(observatory)


def test_trace_event_repr():
    event = TraceEvent(time=1.25, kind="cache_hit", fields={"node": "x"})
    text = repr(event)
    assert "cache_hit" in text and "node" in text
