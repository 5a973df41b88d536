"""Report formatting: a synthetic observatory renders every section."""

from repro.obs.observatory import Observatory
from repro.obs.report import cml_series, summary


def synthetic_observatory():
    obs = Observatory()
    m = obs.metrics
    m.counter("sim.events_dispatched").inc(100)
    m.gauge("sim.queue_depth").set(4)
    m.counter("link.bytes_sent", link="a->b").inc(5000)
    m.counter("link.packets_sent", link="a->b").inc(10)
    m.counter("rpc.packets_out", node="a", kind="Request").inc(6)
    m.counter("rpc.bytes_out", node="a", kind="Request").inc(600)
    m.counter("rpc.bytes_out", node="a", kind="Ping").inc(400)
    m.counter("rpc.retransmits", node="a").inc(2)
    hist = m.histogram("rpc.latency_seconds", node="a", proc="Fetch")
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(900.0)
    m.counter("cache.hits", node="a").inc(3)
    m.counter("cache.misses", node="a", reason="fetch").inc(1)
    m.gauge("cml.length", node="a").set(2)
    m.counter("reintegration.chunks", node="a", status="committed").inc(1)
    m.counter("validation.rpcs", node="a", kind="volume").inc(1)
    obs.event("cml_append", node="a", op="store", records=1, bytes=500)
    obs.event("cml_append", node="a", op="store", records=2, bytes=900)
    obs.event("reintegration_chunk", node="a", status="committed",
              records=2, bytes=900, cml_records=0, cml_bytes=0)
    obs.event("reintegration_chunk", node="a", status="conflict",
              records=1, bytes=0, cml_records=0, cml_bytes=0)
    return obs


class TestSummary:

    def test_all_sections_present(self):
        text = summary(synthetic_observatory())
        for heading in ("Observability summary", "Simulator",
                        "Links (per direction)", "RPC traffic",
                        "Cache references", "Client modify log",
                        "Trickle reintegration", "Validation RPCs",
                        "Event mix"):
            assert heading in text

    def test_traffic_shares_sum_sensibly(self):
        text = summary(synthetic_observatory())
        assert "60.0%" in text      # 600 of 1000 bytes
        assert "40.0%" in text      # the keepalive share
        assert "packets out: 6" in text
        assert "retransmits: 2" in text

    def test_histogram_block(self):
        text = summary(synthetic_observatory())
        assert "rpc.latency_seconds{node=a,proc=Fetch}" in text
        assert "count=3" in text
        assert "+inf" in text       # the 900.0 observation overflowed

    def test_cache_ratio(self):
        text = summary(synthetic_observatory())
        assert "hit ratio: 75.0% (3/4)" in text

    def test_cml_series_from_events(self):
        obs = synthetic_observatory()
        series = cml_series(obs)
        # Appends contribute their post-append length; only committed
        # chunks contribute (the conflict event is skipped).
        assert [value for _t, value in series] == [1, 2, 0]
        assert "length over time" in summary(obs)

    def test_empty_observatory_renders_header_only(self):
        text = summary(Observatory())
        assert "Observability summary" in text
        assert "Links" not in text
        assert "Event mix" not in text

    def test_event_mix_counts(self):
        text = summary(synthetic_observatory())
        assert "cml_append" in text
        assert "reintegration_chunk" in text

    def test_series_downsampling_keeps_endpoints(self):
        obs = Observatory()
        for i in range(40):
            obs.event("cml_append", node="a", op="store",
                      records=i + 1, bytes=0)
        text = summary(obs)
        lines = [l for l in text.splitlines() if "#" in l or "." in l]
        # Downsampled to at most 12 sample rows but first/last survive.
        assert any(" 1  " in line for line in lines)
        assert any(" 40  " in line for line in lines)
