"""Property-based tests on models: patience, chunking, estimation,
fragments, and simulator determinism."""

from hypothesis import given, settings, strategies as st

from repro.core.patience import PatienceModel
from repro.fs import Fid, SyntheticContent
from repro.rpc2.rtt import BandwidthEstimator, RttEstimator
from repro.server.store import FragmentStore
from repro.venus.cml import ClientModifyLog, CmlOp, CmlRecord


# ------------------------------------------------------------ patience

@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=1000),
       st.integers(min_value=0, max_value=1000))
def test_patience_monotone_in_priority(p1, p2):
    model = PatienceModel()
    lo, hi = sorted((p1, p2))
    assert model.threshold(lo) <= model.threshold(hi)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=1000),
       st.floats(min_value=0.001, max_value=10_000.0))
def test_patience_approval_consistent_with_threshold(priority, wait):
    model = PatienceModel()
    assert model.approves(priority, wait) \
        == (wait <= model.threshold(priority))


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=3.001, max_value=100_000.0))
def test_priority_needed_is_tight(wait):
    model = PatienceModel()
    priority = model.priority_needed(wait)
    assert model.approves(priority, wait)
    assert priority == 0 or not model.approves(priority - 1, wait)


# ---------------------------------------------------------- estimators

@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.001, max_value=30.0),
                min_size=1, max_size=50))
def test_rto_always_within_bounds(samples):
    estimator = RttEstimator(min_rto=0.3, max_rto=60.0)
    for sample in samples:
        estimator.observe(sample)
        assert 0.3 <= estimator.rto <= 60.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=10**7),
                          st.floats(min_value=0.001, max_value=1000.0)),
                min_size=1, max_size=50))
def test_bandwidth_estimate_within_sample_range(samples):
    estimator = BandwidthEstimator()
    rates = []
    for nbytes, seconds in samples:
        estimator.observe(nbytes, seconds)
        rates.append(nbytes / seconds)
    assert min(rates) * 0.99 <= estimator.bytes_per_sec \
        <= max(rates) * 1.01


# ------------------------------------------------------------ chunking

sizes = st.lists(st.integers(min_value=0, max_value=200_000),
                 min_size=1, max_size=30)


@settings(max_examples=100, deadline=None)
@given(sizes, st.integers(min_value=100, max_value=500_000))
def test_chunk_selection_invariants(store_sizes, budget):
    cml = ClientModifyLog()
    for i, size in enumerate(store_sizes):
        cml.append(CmlRecord(op=CmlOp.STORE, fid=Fid(1, i, i),
                             content=SyntheticContent(size)), float(i))
    chunk = cml.select_chunk(now=10_000.0, aging_window=0.0,
                             chunk_bytes=budget)
    # Non-empty whenever records exist, a strict log prefix, and within
    # budget unless it is a single oversized record.
    assert chunk
    assert chunk == cml.records[:len(chunk)]
    total = sum(r.size for r in chunk)
    assert total <= budget or len(chunk) == 1
    # Maximality: the next record would not have fit.
    if len(chunk) < len(cml.records):
        assert total + cml.records[len(chunk)].size > budget


@settings(max_examples=100, deadline=None)
@given(sizes,
       st.floats(min_value=0.0, max_value=5_000.0),
       st.floats(min_value=0.0, max_value=10_000.0))
def test_eligibility_is_temporal_prefix(store_sizes, window, now_offset):
    cml = ClientModifyLog()
    for i, size in enumerate(store_sizes):
        cml.append(CmlRecord(op=CmlOp.STORE, fid=Fid(1, i, i),
                             content=SyntheticContent(size)),
                   float(i * 100))
    now = float(len(store_sizes) * 100) + now_offset
    eligible = cml.eligible_records(now, window)
    assert eligible == cml.records[:len(eligible)]
    for record in eligible:
        assert now - record.time >= window
    if len(eligible) < len(cml.records):
        assert now - cml.records[len(eligible)].time < window


# ------------------------------------------------------------ fragments

@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=1_000_000),
       st.integers(min_value=1, max_value=40),
       st.data())
def test_fragment_store_completes_in_any_order(total, pieces, data):
    store = FragmentStore()
    key = ("client", 1)
    fragment = max(1, (total + pieces - 1) // pieces)
    count = (total + fragment - 1) // fragment
    order = data.draw(st.permutations(range(count)))
    for index in order:
        nbytes = min(fragment, total - index * fragment)
        store.put(key, index, nbytes, total)
    assert store.is_complete(key, total)
    assert store.received(key) == total
    store.consume(key)
    assert store.received(key) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=1_000_000),
       st.integers(min_value=1, max_value=40))
def test_fragment_store_incomplete_until_last(total, pieces):
    store = FragmentStore()
    key = ("client", 2)
    fragment = max(1, (total + pieces - 1) // pieces)
    count = (total + fragment - 1) // fragment
    for index in range(count - 1):
        store.put(key, index, min(fragment, total - index * fragment),
                  total)
    assert not store.is_complete(key, total)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=1, max_value=10**6))
def test_fragment_store_restart_on_size_change(old_total, new_total):
    store = FragmentStore()
    key = ("client", 3)
    store.put(key, 0, min(1000, old_total), old_total)
    store.begin(key, new_total)
    if new_total != old_total:
        assert store.received(key) == 0   # stale buffer discarded
    else:
        assert store.received(key) > 0


# --------------------------------------------------------- determinism

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_trace_simulator_deterministic(seed):
    from repro.trace.generate import SegmentSpec, generate_segment
    from repro.trace.simulator import CmlSimulator
    spec = SegmentSpec(name="prop", seed=seed, duration=300.0,
                       target_references=500, oneshot_writes=10,
                       n_source_files=20, hot_files=2,
                       edit_writes_per_file=3, churn_triples=2,
                       pauses_big=2, pauses_med=5)
    a = CmlSimulator(aging_window=120.0).run(generate_segment(spec))
    b = CmlSimulator(aging_window=120.0).run(generate_segment(spec))
    assert a == b
