"""Counter/gauge/histogram semantics and registry behaviour."""

import math

import pytest

from repro.obs.metrics import (DEFAULT_LATENCY_BUCKETS, Histogram,
                               MetricsRegistry, format_labels)


def make_registry(clock=None):
    if clock is None:
        return MetricsRegistry()
    return MetricsRegistry(time_fn=lambda: clock[0])


class TestCounter:

    def test_starts_at_zero_and_increments(self):
        counter = make_registry().counter("ops")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increment(self):
        counter = make_registry().counter("ops")
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 0

    def test_stamps_time_of_last_update(self):
        clock = [0.0]
        counter = make_registry(clock).counter("ops")
        assert counter.last_update is None
        clock[0] = 12.5
        counter.inc()
        assert counter.last_update == 12.5

    def test_data_row(self):
        counter = make_registry().counter("ops")
        counter.inc(3)
        assert counter.data()["value"] == 3


    def test_absorb_is_a_run_of_incs(self):
        clock = [0.0]
        registry = make_registry(clock)
        one_by_one, absorbed = registry.counter("a"), registry.counter("b")
        one_by_one.inc(2)
        absorbed.inc(2)
        for when in (1.0, 2.5, 4.0):
            clock[0] = when
            one_by_one.inc()
        clock[0] = 9.0                  # absorb takes its stamp as given
        absorbed.absorb(3, 4.0)
        assert absorbed.data() == one_by_one.data()


class TestGauge:

    def test_set(self):
        gauge = make_registry().gauge("depth")
        assert gauge.value is None
        gauge.set(10)
        assert gauge.value == 10

    def test_min_max_envelope(self):
        gauge = make_registry().gauge("depth")
        for value in (5, -2, 9, 3):
            gauge.set(value)
        assert gauge.min_value == -2
        assert gauge.max_value == 9
        assert gauge.data() == {"value": 3, "min": -2, "max": 9,
                                "last_update": 0.0}


    def test_absorb_is_a_run_of_sets(self):
        clock = [0.0]
        registry = make_registry(clock)
        one_by_one, absorbed = registry.gauge("a"), registry.gauge("b")
        for gauge in (one_by_one, absorbed):
            gauge.set(5)
        for when, value in ((1.0, 7), (2.0, 3), (3.0, 4)):
            clock[0] = when
            one_by_one.set(value)
        absorbed.absorb(4, 3, 7, 3.0)
        assert absorbed.data() == one_by_one.data()
        # A narrower run never shrinks the envelope, and an unset
        # gauge takes the run's envelope whole.
        absorbed.absorb(5, 5, 6, 8.0)
        assert (absorbed.min_value, absorbed.max_value) == (3, 7)
        fresh = registry.gauge("c")
        fresh.absorb(2, 1, 9, 8.0)
        assert fresh.data() == {"value": 2, "min": 1, "max": 9,
                                "last_update": 8.0}


class TestHistogram:

    def test_observe_fills_buckets(self):
        hist = make_registry().histogram("lat")
        for value in (0.5, 0.9, 5.0, 1000.0):
            hist.observe(value)
        assert hist.count == 4
        filled = {bound: count for bound, count in hist.bucket_rows()
                  if count}
        assert filled == {1.0: 2, 10.0: 1, math.inf: 1}
        assert hist.min == 0.5 and hist.max == 1000.0
        assert hist.mean == pytest.approx(1006.4 / 4)

    def test_bucket_bound_is_inclusive(self):
        hist = make_registry().histogram("lat")
        hist.observe(1.0)
        index = hist.bounds.index(1.0)
        assert hist.counts[index] == 1 and sum(hist.counts) == 1

    def test_empty_histogram(self):
        hist = make_registry().histogram("lat")
        assert hist.mean is None
        assert hist.quantile(0.5) is None

    def test_quantile_upper_bound_biased(self):
        hist = make_registry().histogram("lat")
        for value in (0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.quantile(0.50) == 1.0
        assert hist.quantile(0.75) == 10.0
        assert hist.quantile(1.00) == 60.0

    def test_quantile_in_overflow_returns_observed_max(self):
        hist = make_registry().histogram("lat")
        hist.observe(5000.0)
        assert hist.quantile(0.99) == 5000.0

    def test_bucket_rows_include_inf(self):
        hist = make_registry().histogram("lat")
        hist.observe(5000.0)
        assert hist.bucket_rows() == (
            [(bound, 0) for bound in DEFAULT_LATENCY_BUCKETS]
            + [(math.inf, 1)])

    def test_bounds_are_sorted(self):
        hist = make_registry().histogram("lat")
        assert list(hist.bounds) == sorted(hist.bounds)

    def test_needs_at_least_one_bound(self):
        assert len(Histogram("lat", {}, lambda: 0.0).bounds) >= 1

    def test_default_buckets(self):
        hist = make_registry().histogram("lat")
        assert hist.bounds == DEFAULT_LATENCY_BUCKETS

    def test_every_boundary_value_lands_in_its_own_bucket(self):
        """Upper bounds are inclusive: a value equal to a bound counts
        there, the next float up counts one bucket later, and anything
        past the last bound — +inf included — is overflow."""
        bounds = DEFAULT_LATENCY_BUCKETS
        for index, bound in enumerate(bounds):
            hist = make_registry().histogram("lat")
            hist.observe(bound)
            hist.observe(math.nextafter(bound, math.inf))
            expected = [0] * (len(bounds) + 1)
            expected[index] += 1
            expected[index + 1] += 1
            assert hist.counts == expected, bound
        hist = make_registry().histogram("lat")
        hist.observe(math.nextafter(bounds[0], -math.inf))
        hist.observe(-1.0)
        hist.observe(math.inf)
        assert hist.counts == [2] + [0] * (len(bounds) - 1) + [1]
        assert hist.data()["overflow"] == 1

    def test_observe_agrees_with_the_linear_scan(self):
        def scan(bounds, value):
            for index, bound in enumerate(bounds):
                if value <= bound:
                    return index
            return len(bounds)

        bounds = DEFAULT_LATENCY_BUCKETS
        for value in (0.0, 0.002, 0.5, 0.75, 1.0, 1.5, 4.0, 599.0,
                      600.0, 4500.0, math.inf):
            hist = make_registry().histogram("lat")
            hist.observe(value)
            assert hist.counts.index(1) == scan(bounds, value), value

    def test_observe_stamps_time_of_last_update(self):
        clock = [3.0]
        hist = make_registry(clock).histogram("lat")
        hist.observe(0.2)
        assert hist.last_update == 3.0

    def test_data_row(self):
        hist = make_registry().histogram("lat")
        hist.observe(0.5)
        hist.observe(3000.0)
        data = hist.data()
        assert data["count"] == 2
        assert data["buckets"] == [[bound, int(bound == 1.0)]
                                   for bound in DEFAULT_LATENCY_BUCKETS]
        assert data["overflow"] == 1


class TestRegistry:

    def test_same_key_returns_same_instrument(self):
        registry = make_registry()
        a = registry.counter("ops", node="x")
        b = registry.counter("ops", node="x")
        assert a is b

    def test_label_order_is_irrelevant(self):
        registry = make_registry()
        a = registry.counter("ops", a=1, b=2)
        b = registry.counter("ops", b=2, a=1)
        assert a is b

    def test_distinct_labels_distinct_instruments(self):
        registry = make_registry()
        assert registry.counter("ops", node="x") \
            is not registry.counter("ops", node="y")
        assert len(registry) == 2

    def test_name_kind_conflict_raises(self):
        registry = make_registry()
        registry.counter("ops", node="x")
        with pytest.raises(TypeError):
            registry.gauge("ops", node="x")     # same key, other kind
        with pytest.raises(TypeError):
            registry.gauge("ops", node="y")     # same name, other kind

    def test_histogram_bucket_defaults_shared_per_name(self):
        registry = make_registry()
        first = registry.histogram("lat", node="x")
        later = registry.histogram("lat", node="y")
        assert later is not first
        assert later.bounds == first.bounds == DEFAULT_LATENCY_BUCKETS

    def test_instruments_sorted_and_queries(self):
        registry = make_registry()
        registry.counter("b.ops", node="y").inc(2)
        registry.counter("b.ops", node="x").inc(3)
        registry.counter("a.ops").inc()
        registry.gauge("b.depth").set(7)
        names = [inst.name for inst in registry.instruments()]
        assert names == ["a.ops", "b.depth", "b.ops", "b.ops"]
        assert len(registry.with_name("b.ops")) == 2
        assert len(registry.with_prefix("b.")) == 3
        assert registry.total("b.ops") == 5     # gauges excluded
        assert registry.find("b.ops", node="x").value == 3
        assert registry.find("b.ops", node="z") is None

    def test_rows_cover_every_instrument(self):
        registry = make_registry()
        registry.counter("ops", node="x").inc()
        registry.gauge("depth").set(2)
        registry.histogram("lat").observe(0.5)
        rows = {row["metric"]: row for row in registry.rows()}
        assert rows["ops"]["type"] == "counter"
        assert rows["ops"]["labels"] == {"node": "x"}
        assert rows["depth"]["value"] == 2
        assert rows["lat"]["count"] == 1


def test_format_labels_sorted():
    assert format_labels({"b": 2, "a": "x"}) == "a=x,b=2"
    assert format_labels({}) == ""


def test_instrument_repr_mentions_identity():
    counter = make_registry().counter("ops", node="x")
    assert "ops" in repr(counter) and "node=x" in repr(counter)
