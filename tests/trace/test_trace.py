"""Trace generation, CML simulation, and replay mechanics."""

from repro.trace import (
    CmlSimulator,
    SEGMENT_SPECS,
    TraceOp,
    TraceReplayer,
    WEEK_TRACE_SPECS,
    generate_segment,
    segment_by_name,
    week_trace_by_name,
)
from repro.trace.generate import SegmentSpec
from repro.trace.simulator import savings_curve
from repro.venus import VenusConfig

from tests.conftest import build_testbed, connected


def small_spec(**kwargs):
    defaults = dict(name="tiny", seed=1, duration=600.0,
                    target_references=2_000, oneshot_writes=20,
                    hot_files=2, edit_writes_per_file=4,
                    churn_triples=3, dir_pairs=2, n_source_files=40,
                    pauses_big=4, pauses_med=10)
    defaults.update(kwargs)
    return SegmentSpec(**defaults)


def test_generation_is_deterministic():
    a = generate_segment(small_spec())
    b = generate_segment(small_spec())
    assert a.references == b.references
    assert [(r.time, r.op, r.path, r.size) for r in a.records] \
        == [(r.time, r.op, r.path, r.size) for r in b.records]


def test_different_seeds_differ():
    a = generate_segment(small_spec(seed=1))
    b = generate_segment(small_spec(seed=2))
    assert [(r.op, r.path) for r in a.records] \
        != [(r.op, r.path) for r in b.records]


def test_timestamps_monotone_and_bounded():
    segment = generate_segment(small_spec())
    times = [r.time for r in segment.records]
    assert times == sorted(times)
    assert times[-1] <= segment.duration + 1e-6


def test_reference_count_near_target():
    segment = generate_segment(small_spec())
    assert abs(segment.references - 2_000) < 150


def test_update_classification():
    segment = generate_segment(small_spec())
    updates = [r for r in segment.records if r.is_update]
    assert updates
    assert all(r.op in (TraceOp.WRITE, TraceOp.MKDIR, TraceOp.RMDIR,
                        TraceOp.UNLINK, TraceOp.CREATE, TraceOp.RENAME,
                        TraceOp.SYMLINK, TraceOp.SETATTR)
               for r in updates)


def test_think_time_above_is_monotone_in_threshold():
    segment = generate_segment(small_spec())
    t1 = segment.think_time_above(1.0)
    t10 = segment.think_time_above(10.0)
    assert 0 <= t10 <= t1 <= segment.duration


def test_all_named_presets_generate():
    for name in SEGMENT_SPECS:
        segment = segment_by_name(name)
        assert segment.references > 10_000
    for name in WEEK_TRACE_SPECS:
        trace = week_trace_by_name(name)
        assert trace.updates > 1_000


# ------------------------------------------------------- CML simulator

def test_simulator_infinite_window_never_reintegrates():
    segment = generate_segment(small_spec())
    report = CmlSimulator(aging_window=float("inf")).run(segment)
    assert report.reintegrated_bytes == 0
    assert report.final_cml_bytes == report.appended_bytes \
        - report.optimized_bytes


def test_simulator_zero_window_ships_everything():
    segment = generate_segment(small_spec())
    report = CmlSimulator(aging_window=0.0).run(segment)
    assert report.optimized_bytes == 0
    assert report.final_cml_bytes == 0
    assert report.reintegrated_bytes == report.appended_bytes


def test_savings_monotone_in_window():
    segment = generate_segment(small_spec())
    curve = savings_curve(segment, [0, 30, 120, 600, 10_000])
    values = [curve[w] for w in (0, 30, 120, 600, 10_000)]
    assert values == sorted(values)


def test_optimizations_off_saves_nothing():
    segment = generate_segment(small_spec())
    report = CmlSimulator(aging_window=float("inf"),
                          log_optimizations=False).run(segment)
    assert report.optimized_bytes == 0
    assert report.final_cml_bytes == report.appended_bytes


def test_conservation_of_bytes():
    segment = generate_segment(small_spec())
    for window in (0.0, 60.0, 300.0, float("inf")):
        report = CmlSimulator(aging_window=window).run(segment)
        assert (report.reintegrated_bytes + report.optimized_bytes
                + report.final_cml_bytes) == report.appended_bytes


# ------------------------------------------------------------- replay

def test_replay_executes_full_trace():
    from repro.spec.testbed import warm_cache
    segment = generate_segment(small_spec())
    config = VenusConfig(force_write_disconnected=True, aging_window=600)
    testbed = build_testbed(venus_config=config, warm=False,
                            tree=segment.tree, mount="/coda/usr/trace")
    warm_cache(testbed.venus, testbed.server, testbed.volume)
    connected(testbed)
    replayer = TraceReplayer(testbed.venus, think_threshold=1.0,
                             warm_seconds=60.0)

    def go():
        report = yield from replayer.run(segment)
        return report

    report = testbed.run(go())
    assert report.operations == segment.references
    assert report.misses == 0
    assert report.errors == 0
    assert report.elapsed > 0
    assert report.total_elapsed >= report.elapsed


def test_think_threshold_shrinks_elapsed():
    from repro.spec.testbed import warm_cache
    segment = generate_segment(small_spec())
    results = {}
    for lam in (1.0, 10.0):
        config = VenusConfig(force_write_disconnected=True)
        testbed = build_testbed(venus_config=config, warm=False,
                                tree=segment.tree,
                                mount="/coda/usr/trace")
        warm_cache(testbed.venus, testbed.server, testbed.volume)
        connected(testbed)
        replayer = TraceReplayer(testbed.venus, think_threshold=lam,
                                 warm_seconds=0.0)

        def go():
            return (yield from replayer.run(segment))

        results[lam] = testbed.run(go()).elapsed
    assert results[10.0] < results[1.0]
