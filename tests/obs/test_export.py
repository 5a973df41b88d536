"""JSONL export of the timeline and the metrics."""

import io
import json

from repro.obs.events import TraceEvent, TraceRecorder
from repro.obs.export import write_events_jsonl, write_metrics_jsonl
from repro.obs.metrics import MetricsRegistry


def sample_events():
    recorder = TraceRecorder()
    recorder.record("rpc_send", 1.5, node="laptop", peer="server",
                    proc="Fetch", seq=3)
    recorder.record("link_down", 2.0, link="laptop->server")
    recorder.record("cml_append", 2.5, node="laptop", op="store",
                    records=2, bytes=1700)
    return recorder.events


def sample_registry():
    registry = MetricsRegistry(time_fn=lambda: 42.0)
    registry.counter("link.bytes_sent", link="a->b").inc(1200)
    registry.gauge("cml.length", node="laptop").set(3)
    hist = registry.histogram("rpc.latency_seconds", node="laptop")
    hist.observe(0.05)
    hist.observe(5000.0)
    return registry


class TestEventsJsonl:

    def test_round_trip_is_exact(self, tmp_path):
        events = sample_events()
        path = tmp_path / "events.jsonl"
        assert write_events_jsonl(events, path) == 3
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == [event.to_row() for event in events]

    def test_file_objects_accepted(self):
        buffer = io.StringIO()
        write_events_jsonl(sample_events(), buffer)
        kinds = [json.loads(line)["kind"]
                 for line in buffer.getvalue().splitlines()]
        assert kinds == ["rpc_send", "link_down", "cml_append"]

    def test_lines_are_plain_json_with_sorted_keys(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events_jsonl(sample_events(), path)
        first = path.read_text().splitlines()[0]
        row = json.loads(first)
        assert row["kind"] == "rpc_send" and row["time"] == 1.5
        assert list(row) == sorted(row)

    def test_non_json_values_degrade_to_str(self, tmp_path):
        events = [TraceEvent(time=0.0, kind="cache_hit",
                             fields={"obj": frozenset({1})})]
        path = tmp_path / "events.jsonl"
        write_events_jsonl(events, path)
        assert isinstance(json.loads(path.read_text())["obj"], str)


class TestMetricsExport:

    def test_jsonl_rows(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        assert write_metrics_jsonl(sample_registry(), path) == 3
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        by_name = {row["metric"]: row for row in rows}
        assert by_name["link.bytes_sent"]["value"] == 1200
        assert by_name["link.bytes_sent"]["labels"] == {"link": "a->b"}
        assert by_name["cml.length"]["max"] == 3
        assert by_name["rpc.latency_seconds"]["count"] == 2
        assert by_name["rpc.latency_seconds"]["overflow"] == 1
