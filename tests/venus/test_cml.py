"""CML log optimizations, aging, chunk selection, and the barrier."""

import pytest

from repro.fs import Fid, SyntheticContent
from repro.venus import ClientModifyLog, CmlOp, CmlRecord
from repro.venus.cml import RECORD_OVERHEAD


def fid(n):
    return Fid(1, n, n)


DIR = fid(100)


def store(f, size, tag=None):
    return CmlRecord(op=CmlOp.STORE, fid=f,
                     content=SyntheticContent(size, tag=tag))


def create(f, name):
    return CmlRecord(op=CmlOp.CREATE, fid=f, parent=DIR, name=name)


def unlink(f, name):
    return CmlRecord(op=CmlOp.UNLINK, fid=f, parent=DIR, name=name)


def test_append_assigns_seqno_and_time():
    cml = ClientModifyLog()
    record = store(fid(1), 100)
    assert cml.append(record, now=5.0)
    assert record.seqno == 1
    assert record.time == 5.0
    assert len(cml) == 1


def test_store_overwrites_earlier_store():
    cml = ClientModifyLog()
    cml.append(store(fid(1), 10_000), 0.0)
    cml.append(store(fid(1), 2_000), 1.0)
    assert len(cml) == 1
    assert list(cml)[0].content.size == 2_000
    assert cml.stats.optimized_bytes == RECORD_OVERHEAD + 10_000


def test_stores_of_different_files_coexist():
    cml = ClientModifyLog()
    cml.append(store(fid(1), 10), 0.0)
    cml.append(store(fid(2), 20), 1.0)
    assert len(cml) == 2


def test_create_store_unlink_annihilates():
    """The paper's example: create + store + unlink all vanish."""
    cml = ClientModifyLog()
    cml.append(create(fid(1), "f"), 0.0)
    cml.append(store(fid(1), 50_000), 1.0)
    appended = cml.append(unlink(fid(1), "f"), 2.0)
    assert not appended
    assert len(cml) == 0
    # All three records' bytes count as saved.
    assert cml.stats.optimized_bytes == (RECORD_OVERHEAD * 3 + 50_000)


def test_unlink_of_preexisting_file_stays():
    cml = ClientModifyLog()
    cml.append(store(fid(1), 9_000), 0.0)
    appended = cml.append(unlink(fid(1), "f"), 1.0)
    assert appended
    assert [r.op for r in cml] == [CmlOp.UNLINK]


def test_mkdir_rmdir_annihilates():
    cml = ClientModifyLog()
    d = fid(9)
    cml.append(CmlRecord(op=CmlOp.MKDIR, fid=d, parent=DIR, name="w"), 0.0)
    appended = cml.append(
        CmlRecord(op=CmlOp.RMDIR, fid=d, parent=DIR, name="w"), 1.0)
    assert not appended
    assert len(cml) == 0


def test_rmdir_blocked_by_activity_inside_dir():
    cml = ClientModifyLog()
    d = fid(9)
    cml.append(CmlRecord(op=CmlOp.MKDIR, fid=d, parent=DIR, name="w"), 0.0)
    # A surviving unlink inside d blocks identity cancellation.
    cml.append(CmlRecord(op=CmlOp.UNLINK, fid=fid(10), parent=d,
                         name="x"), 1.0)
    appended = cml.append(
        CmlRecord(op=CmlOp.RMDIR, fid=d, parent=DIR, name="w"), 2.0)
    assert appended
    assert len(cml) == 3


def test_size_accounting():
    cml = ClientModifyLog()
    cml.append(store(fid(1), 5_000), 0.0)
    cml.append(create(fid(2), "g"), 1.0)
    assert cml.size_bytes == (RECORD_OVERHEAD + 5_000) + RECORD_OVERHEAD


# ------------------------------------------------------- aging & chunks

def test_eligible_records_is_aged_prefix():
    cml = ClientModifyLog()
    cml.append(store(fid(1), 10), 0.0)
    cml.append(store(fid(2), 10), 100.0)
    cml.append(store(fid(3), 10), 500.0)
    eligible = cml.eligible_records(now=700.0, aging_window=600.0)
    assert [r.fid for r in eligible] == [fid(1), fid(2)]


def test_select_chunk_respects_budget():
    cml = ClientModifyLog()
    for i in range(5):
        cml.append(store(fid(i), 1_000), 0.0)
    chunk = cml.select_chunk(now=1000.0, aging_window=0.0,
                             chunk_bytes=2 * (RECORD_OVERHEAD + 1000))
    assert len(chunk) == 2


def test_select_chunk_always_takes_one_if_oversized():
    cml = ClientModifyLog()
    cml.append(store(fid(1), 10_000_000), 0.0)
    chunk = cml.select_chunk(now=1000.0, aging_window=0.0, chunk_bytes=100)
    assert len(chunk) == 1


def test_select_chunk_empty_when_nothing_aged():
    cml = ClientModifyLog()
    cml.append(store(fid(1), 10), 100.0)
    assert cml.select_chunk(now=150.0, aging_window=600.0,
                            chunk_bytes=10**9) == []


# ------------------------------------------------------------ barrier

def test_frozen_records_protected_from_optimization():
    cml = ClientModifyLog()
    cml.append(store(fid(1), 10_000, tag="old"), 0.0)
    cml.freeze(1)
    cml.append(store(fid(1), 2_000, tag="new"), 1.0)
    # Both live: the frozen store may not be cancelled (Figure 3).
    assert len(cml) == 2
    assert cml.frozen_count == 1


def test_commit_frozen_removes_prefix():
    cml = ClientModifyLog()
    cml.append(store(fid(1), 10), 0.0)
    cml.append(store(fid(2), 10), 1.0)
    cml.freeze(1)
    done = cml.commit_frozen()
    assert [r.fid for r in done] == [fid(1)]
    assert len(cml) == 1
    assert cml.frozen_count == 0
    assert cml.stats.reintegrated_records == 1


def test_abort_reoptimizes_across_old_barrier():
    """On abort, records superfluous because of concurrent updates
    are removed — section 4.3.3."""
    cml = ClientModifyLog()
    cml.append(store(fid(1), 10_000, tag="old"), 0.0)
    cml.freeze(1)
    cml.append(store(fid(1), 2_000, tag="new"), 1.0)
    cml.abort_frozen()
    assert len(cml) == 1
    assert list(cml)[0].content.tag == "new"


def test_identity_cancellation_respects_barrier():
    """An unlink cannot annihilate a create that is being shipped."""
    cml = ClientModifyLog()
    cml.append(create(fid(1), "f"), 0.0)
    cml.freeze(1)
    appended = cml.append(unlink(fid(1), "f"), 1.0)
    assert appended
    assert len(cml) == 2


def test_double_freeze_rejected():
    cml = ClientModifyLog()
    cml.append(store(fid(1), 10), 0.0)
    cml.freeze(1)
    with pytest.raises(RuntimeError):
        cml.freeze(1)


def test_freeze_too_many_rejected():
    cml = ClientModifyLog()
    with pytest.raises(ValueError):
        cml.freeze(1)


def test_discard_removes_conflicted_records():
    cml = ClientModifyLog()
    a = store(fid(1), 10)
    b = store(fid(2), 10)
    cml.append(a, 0.0)
    cml.append(b, 1.0)
    removed = cml.discard([a])
    assert removed == 1
    assert list(cml) == [b]
