"""Property-based tests: CML optimization preserves replay semantics.

The central invariant of section 4.3.3: replaying an optimized CML
against a server must leave *exactly* the same file system state as
replaying the unoptimized log.  Hypothesis generates random operation
sequences; both logs are replayed against identical shadow worlds and
the results compared structurally.
"""

from hypothesis import given, settings, strategies as st

from repro.fs import (
    Fid,
    ObjectType,
    SyntheticContent,
    Vnode,
    Volume,
    VolumeRegistry,
)
from repro.server.reintegration import Reintegrator
from repro.venus.cml import ClientModifyLog, CmlOp, CmlRecord

VOL = 7
N_PREEXISTING = 3
N_NAMES = 6


def fresh_world():
    registry = VolumeRegistry()
    volume = Volume(VOL, "prop")
    registry.mount("/coda/prop", volume)
    for i in range(N_PREEXISTING):
        vnode = Vnode(Fid(VOL, 1000 + i, 1000 + i), ObjectType.FILE,
                      content=SyntheticContent(100, tag=("pre", i)))
        volume.add(vnode)
        volume.root.children["pre%d" % i] = vnode.fid
    return registry, volume


# One abstract operation: (kind, name index, size).  Names index a
# small space so that create/unlink/overwrite collisions are common.
operations = st.lists(
    st.tuples(
        st.sampled_from(["write", "unlink", "mkdir", "rmdir"]),
        st.integers(min_value=0, max_value=N_NAMES - 1),
        st.integers(min_value=1, max_value=50_000)),
    min_size=1, max_size=40)


class _Workload:
    """Applies abstract ops through a CML like Venus would."""

    def __init__(self, cml, optimize):
        self.cml = cml
        self.optimize = optimize
        registry, volume = fresh_world()
        self.registry = registry
        self.volume = volume
        self.names = {}        # name -> (fid, kind, base_version)
        for i in range(N_PREEXISTING):
            fid = self.volume.root.children["pre%d" % i]
            self.names["pre%d" % i] = (fid, "file", 1)
        self._fid_counter = 5000
        self.clock = 0.0

    def _new_fid(self):
        self._fid_counter += 1
        return Fid(VOL, self._fid_counter, self._fid_counter)

    def _log(self, record):
        self.clock += 1.0
        self.cml.append(record, self.clock, optimize=self.optimize)

    def apply(self, kind, index, size):
        name = "n%d" % index
        root = self.volume.root_fid
        if kind == "write":
            known = self.names.get(name)
            if known and known[1] == "dir":
                return
            tag = ("w", name, size, self.clock)
            if known is None:
                fid = self._new_fid()
                self.names[name] = (fid, "file", None)
                self._log(CmlRecord(op=CmlOp.CREATE, fid=fid, parent=root,
                                    name=name))
                self._log(CmlRecord(op=CmlOp.STORE, fid=fid,
                                    content=SyntheticContent(size, tag)))
            else:
                fid, _kind, base = known
                self._log(CmlRecord(op=CmlOp.STORE, fid=fid,
                                    content=SyntheticContent(size, tag),
                                    base_version=base))
        elif kind == "unlink":
            known = self.names.get(name)
            if not known or known[1] != "file":
                return
            fid, _kind, base = known
            del self.names[name]
            self._log(CmlRecord(op=CmlOp.UNLINK, fid=fid, parent=root,
                                name=name, base_version=base))
        elif kind == "mkdir":
            if name in self.names:
                return
            fid = self._new_fid()
            self.names[name] = (fid, "dir", None)
            self._log(CmlRecord(op=CmlOp.MKDIR, fid=fid, parent=root,
                                name=name))
        elif kind == "rmdir":
            known = self.names.get(name)
            if not known or known[1] != "dir":
                return
            fid, _kind, _base = known
            del self.names[name]
            self._log(CmlRecord(op=CmlOp.RMDIR, fid=fid, parent=root,
                                name=name))


def world_snapshot(volume):
    """Structural fingerprint: name -> (type, content identity)."""
    snapshot = {}
    for name, fid in volume.root.children.items():
        vnode = volume.get(fid)
        content = vnode.content.fingerprint if vnode.is_file() else None
        snapshot[name] = (vnode.otype.value, content)
    return snapshot


@settings(max_examples=120, deadline=None)
@given(operations)
def test_optimized_replay_equals_unoptimized_replay(ops):
    outcomes = []
    for optimize in (True, False):
        workload = _Workload(ClientModifyLog(), optimize)
        for kind, index, size in ops:
            workload.apply(kind, index, size)
        reintegrator = Reintegrator(workload.registry)
        records = list(workload.cml)
        conflicts = reintegrator.validate(records)
        assert conflicts == [], (optimize, conflicts)
        reintegrator.apply(records, mtime=1.0)
        outcomes.append(world_snapshot(workload.volume))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=120, deadline=None)
@given(operations)
def test_optimization_never_grows_the_log(ops):
    optimized = _Workload(ClientModifyLog(), True)
    plain = _Workload(ClientModifyLog(), False)
    for kind, index, size in ops:
        optimized.apply(kind, index, size)
        plain.apply(kind, index, size)
    assert optimized.cml.size_bytes <= plain.cml.size_bytes
    assert len(optimized.cml) <= len(plain.cml)
    stats = optimized.cml.stats
    assert stats.appended_bytes - stats.optimized_bytes \
        == optimized.cml.size_bytes


@settings(max_examples=60, deadline=None)
@given(operations, st.integers(min_value=0, max_value=20))
def test_barrier_freeze_commit_preserves_order(ops, freeze_at):
    workload = _Workload(ClientModifyLog(), True)
    for kind, index, size in ops:
        workload.apply(kind, index, size)
    cml = workload.cml
    n = min(freeze_at, len(cml))
    seqnos_before = [r.seqno for r in cml]
    cml.freeze(n)
    committed = cml.commit_frozen()
    assert [r.seqno for r in committed] == seqnos_before[:n]
    assert [r.seqno for r in cml] == seqnos_before[n:]
    # Temporal order is intact.
    times = [r.time for r in cml]
    assert times == sorted(times)


@settings(max_examples=60, deadline=None)
@given(operations)
def test_abort_frozen_is_equivalent_to_never_freezing(ops):
    """Freezing a prefix and aborting yields the same log as having
    appended everything without a barrier."""
    direct = _Workload(ClientModifyLog(), True)
    for kind, index, size in ops:
        direct.apply(kind, index, size)

    frozen = _Workload(ClientModifyLog(), True)
    half = ops[:len(ops) // 2]
    rest = ops[len(ops) // 2:]
    for kind, index, size in half:
        frozen.apply(kind, index, size)
    frozen.cml.freeze(len(frozen.cml))
    for kind, index, size in rest:
        frozen.apply(kind, index, size)
    frozen.cml.abort_frozen()

    def shape(cml):
        return [(r.op, r.fid, r.name,
                 r.content.fingerprint if r.content else None)
                for r in cml]

    assert shape(direct.cml) == shape(frozen.cml)
