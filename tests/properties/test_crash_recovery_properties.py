"""Crash-anywhere recovery: the RVM snapshot loses nothing that matters.

For an arbitrary offline session and an arbitrary crash point inside
it, a client that crashes, restarts from its persisted snapshot,
finishes the session, and reintegrates must leave the server in
exactly the state an uninterrupted client would have — and the log it
replays must be the *optimized* log, not a raw journal.
"""

from hypothesis import given, settings, strategies as st

from repro.faults import namespace_digest, restore_venus, snapshot_venus
from repro.fs.content import SyntheticContent
from repro.net import MODEM
from repro.spec.catalog import MOUNT
from repro.spec.testbed import make_testbed, populate_volume, warm_cache
from repro.venus import VenusConfig

NAMES = ["a", "b", "c", "d"]

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["write", "mkdir", "unlink", "rmdir"]),
        st.integers(min_value=0, max_value=len(NAMES) - 1),
        st.integers(min_value=100, max_value=4_000),
    ),
    min_size=1, max_size=8)


def _fresh_testbed():
    config = VenusConfig(start_daemons=False)
    testbed = make_testbed(MODEM, venus_config=config, seed=11)
    tree = {MOUNT + "/work": ("dir", 0),
            MOUNT + "/work/base.txt": ("file", 1_500)}
    volume = populate_volume(testbed.server, MOUNT, tree)
    warm_cache(testbed.venus, testbed.server, volume)
    return testbed


def _apply_ops(testbed, venus, ops, start, model):
    """Interpret ``ops[start:]`` against ``model`` (name -> kind).

    The guards make every op applicable, so the *effective* session is
    a pure function of ``ops`` — identical whichever incarnation of
    Venus executes which half.
    """
    for index, (kind, i, size) in enumerate(ops[start:], start):
        name = NAMES[i]
        path = MOUNT + "/work/" + name
        content = SyntheticContent(size, tag=("prop", index))

        def step(kind=kind, name=name, path=path, content=content):
            if kind == "write":
                if model.get(name, "file") != "file":
                    return
                yield from venus.write_file(path, content)
                model[name] = "file"
            elif kind == "mkdir":
                if name in model:
                    return
                yield from venus.mkdir(path)
                model[name] = "dir"
            elif kind == "unlink":
                if model.get(name) != "file":
                    return
                yield from venus.unlink(path)
                del model[name]
            elif kind == "rmdir":
                if model.get(name) != "dir":
                    return
                yield from venus.rmdir(path)
                del model[name]

        testbed.run(step())


def _cml_summary(venus):
    return [(r.seqno, r.op.value, r.fid, r.name,
             r.content.fingerprint if r.content is not None else None)
            for r in venus.cml]


def _connect_and_drain(testbed, venus):
    def go():
        reached = yield from venus.connect()
        assert reached
        drained = yield from venus.trickle.drain()
        assert drained

    testbed.run(go())


@settings(max_examples=15, deadline=None)
@given(ops_strategy, st.integers(min_value=0, max_value=100))
def test_crash_at_any_point_recovers_the_uninterrupted_state(ops, point):
    crash_at = point % (len(ops) + 1)

    # Uninterrupted reference run.
    straight = _fresh_testbed()
    _apply_ops(straight, straight.venus, ops, 0, {"base.txt": "file"})
    straight_log = _cml_summary(straight.venus)
    _connect_and_drain(straight, straight.venus)

    # Same session with a crash/restart after ``crash_at`` operations.
    faulted = _fresh_testbed()
    model = {"base.txt": "file"}
    _apply_ops(faulted, faulted.venus, ops[:crash_at], 0, model)
    snapshot = snapshot_venus(faulted.venus)
    faulted.venus.crash()
    revived = restore_venus(snapshot, faulted.sim, faulted.net,
                            faulted.venus.endpoint.host)
    faulted.venus = revived
    _apply_ops(faulted, revived, ops, crash_at, model)

    # The replayed log is the optimized log, byte for byte: same
    # records, same sequence numbers, same fids, same payloads.
    assert _cml_summary(revived) == straight_log

    _connect_and_drain(faulted, revived)
    assert namespace_digest(faulted.server) \
        == namespace_digest(straight.server)
    assert len(revived.cml) == 0


@settings(max_examples=10, deadline=None)
@given(ops_strategy)
def test_snapshot_preserves_log_optimizations(ops):
    """The persisted log is the optimized one — overwritten stores and
    create/unlink pairs do not resurrect across a crash."""
    testbed = _fresh_testbed()
    _apply_ops(testbed, testbed.venus, ops, 0, {"base.txt": "file"})
    before = _cml_summary(testbed.venus)
    stats_before = testbed.venus.cml.stats.snapshot()

    snapshot = snapshot_venus(testbed.venus)
    testbed.venus.crash()
    revived = restore_venus(snapshot, testbed.sim, testbed.net,
                            testbed.venus.endpoint.host)

    assert _cml_summary(revived) == before
    assert revived.cml.stats.optimized_records \
        == stats_before.optimized_records
    assert revived.cml.stats.appended_records \
        == stats_before.appended_records
