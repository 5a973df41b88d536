"""The client modify log (CML) and its optimizations.

While emulating or write disconnected, Venus logs every mutating
operation here.  Before a record is appended, the optimizer checks
whether it cancels or overrides earlier records (section 4.3.3) — a
store overwrites a previous store of the same file; an unlink of a
file created within the log annihilates the create, its stores, and
itself.  Trace studies showed these optimizations are "the key to
reducing the volume of reintegration data."

During trickle reintegration a *reintegration barrier* freezes a head
prefix of the log (Figure 3): frozen records are being shipped and are
exempt from optimization; only records to the right of the barrier may
cancel each other.  If reintegration aborts, the barrier is removed
and the whole log becomes optimizable again.
"""

import enum
from dataclasses import dataclass
from itertools import count
from typing import Optional

from repro.fs.content import Content
from repro.fs.fid import Fid

#: Modelled wire/log overhead of one CML record, bytes.
RECORD_OVERHEAD = 100


class CmlOp(enum.Enum):
    STORE = "store"
    CREATE = "create"
    UNLINK = "unlink"
    MKDIR = "mkdir"
    RMDIR = "rmdir"


@dataclass
class CmlRecord:
    """One logged update, carrying everything needed to replay it."""

    op: CmlOp
    fid: Fid                                 # the object acted upon
    time: float = 0.0                        # append time (for aging)
    seqno: int = 0
    parent: Optional[Fid] = None             # containing directory
    name: Optional[str] = None
    content: Optional[Content] = None        # store payload
    base_version: Optional[int] = None       # version the client saw

    @property
    def size(self):
        """Bytes this record contributes to the CML (and the wire)."""
        data = self.content.size if self.content is not None else 0
        return RECORD_OVERHEAD + data

    def __repr__(self):
        return "<CML #%d %s %s%s>" % (
            self.seqno, self.op.value, self.fid,
            " %r" % self.name if self.name else "")


@dataclass
class CmlStats:
    """Cumulative accounting used by the Figure 14 style tables."""

    appended_records: int = 0
    appended_bytes: int = 0
    optimized_records: int = 0
    optimized_bytes: int = 0
    reintegrated_records: int = 0
    reintegrated_bytes: int = 0

    def snapshot(self):
        return CmlStats(**self.__dict__)


class ClientModifyLog:
    """Temporal log of updates with optimization and a freeze barrier."""

    def __init__(self):
        self._records = []
        self._seq = count(1)
        self._frozen = set()       # id()s of records behind the barrier
        # Per-fid count of live records acting on that object (the
        # definition of a dirty cache entry), kept exact at every site
        # a record enters or leaves the log, plus the fids that gained
        # or lost their last record since :meth:`take_changed_fids` —
        # so Venus refreshes dirty flags without rescanning the log.
        # Mutated in place, never rebound: the cache holds a reference.
        self._fid_refs = {}
        self._changed_fids = set()
        self.stats = CmlStats()
        # Observability hook: called with the log after any content
        # change (append, commit, abort, discard).  None by default —
        # Venus wires it to the metrics gauges when instrumented.
        self.on_change = None

    def _notify(self):
        if self.on_change is not None:
            self.on_change(self)

    # -- basic views ----------------------------------------------------

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def size_bytes(self):
        return sum(record.size for record in self._records)

    @property
    def frozen_count(self):
        return len(self._frozen)

    # -- the per-fid record index ----------------------------------------

    @property
    def logged_fids(self):
        """Live view of the fids some record acts on (``record.fid``)."""
        return self._fid_refs.keys()

    def take_changed_fids(self):
        """Fids that entered or left :attr:`logged_fids` since last asked.

        May over-report (a fid that left and came back), never
        under-report.  Bounded by the distinct fids ever logged.
        """
        changed = self._changed_fids
        if changed:
            self._changed_fids = set()
        return changed

    def _insert(self, record):
        self._records.append(record)
        fid = record.fid
        refs = self._fid_refs.get(fid, 0)
        if not refs:
            self._changed_fids.add(fid)
        self._fid_refs[fid] = refs + 1

    def _unref(self, record):
        fid = record.fid
        left = self._fid_refs[fid] - 1
        if left:
            self._fid_refs[fid] = left
        else:
            del self._fid_refs[fid]
            self._changed_fids.add(fid)

    # -- appending with optimization -------------------------------------

    def append(self, record, now, optimize=True):
        """Log ``record``, applying cancellation optimizations.

        Returns True if the record was actually appended, False if it
        annihilated itself together with earlier records (e.g. the
        unlink of a file created within the log).  ``optimize=False``
        is the ablation: append without any cancellation.
        """
        record.time = now
        record.seqno = next(self._seq)
        self.stats.appended_records += 1
        self.stats.appended_bytes += record.size
        if optimize:
            appended = self._optimize_and_insert(record)
        else:
            self._insert(record)
            appended = True
        self._notify()
        return appended

    def _optimize_and_insert(self, record):
        op = record.op

        if op is CmlOp.STORE:
            self._cancel(lambda r: r.op is CmlOp.STORE and r.fid == record.fid)
        elif op is CmlOp.UNLINK:
            # Stores of a doomed object are always dead.
            self._cancel(lambda r: r.op is CmlOp.STORE
                         and r.fid == record.fid)
            creator = self._find_unfrozen(
                lambda r: r.op is CmlOp.CREATE and r.fid == record.fid)
            if creator is not None:
                # Identity cancellation: create + updates + unlink vanish.
                self._remove(creator)
                self._account_self_cancel(record)
                return False
        elif op is CmlOp.RMDIR:
            maker = self._find_unfrozen(
                lambda r: r.op is CmlOp.MKDIR and r.fid == record.fid)
            if maker is not None:
                obstructed = any(
                    r is not maker and (r.parent == record.fid
                                        or r.fid == record.fid)
                    for r in self._records)
                if not obstructed:
                    self._remove(maker)
                    self._account_self_cancel(record)
                    return False
        self._insert(record)
        return True

    def _find_unfrozen(self, predicate):
        for index in range(len(self._records) - 1, -1, -1):
            record = self._records[index]
            if id(record) not in self._frozen and predicate(record):
                return record
        return None

    def _cancel(self, predicate):
        doomed = [r for r in self._records
                  if id(r) not in self._frozen and predicate(r)]
        for record in doomed:
            self._remove(record)

    def _remove(self, record):
        self._records.remove(record)
        self._unref(record)
        self.stats.optimized_records += 1
        self.stats.optimized_bytes += record.size

    def _account_self_cancel(self, record):
        self.stats.optimized_records += 1
        self.stats.optimized_bytes += record.size

    # -- aging and chunk selection (section 4.3.5) -----------------------

    def eligible_records(self, now, aging_window):
        """The head prefix old enough to reintegrate (temporal order)."""
        eligible = []
        for record in self._records:
            if now - record.time < aging_window:
                break
            eligible.append(record)
        return eligible

    def select_chunk(self, now, aging_window, chunk_bytes):
        """Maximal eligible prefix whose sizes sum to ``chunk_bytes``.

        At least one record is selected if any is eligible, even if its
        size alone exceeds the budget (it will be fragmented by the
        transport; section 4.3.5).  While a reintegration is in flight
        (records frozen), nothing is selected.
        """
        if self._frozen:
            return []
        chunk = []
        total = 0
        for record in self.eligible_records(now, aging_window):
            if chunk and total + record.size > chunk_bytes:
                break
            chunk.append(record)
            total += record.size
        return chunk

    # -- the reintegration barrier (Figure 3) ----------------------------

    def freeze(self, n_records):
        """Place the barrier after the first ``n_records`` records.

        A prefix of the log is dependency closed by construction: every
        earlier record touching a frozen object is frozen too, so
        replay order at the server respects precedence.
        """
        if n_records > len(self._records):
            raise ValueError("cannot freeze %d of %d records"
                             % (n_records, len(self._records)))
        if self._frozen:
            raise RuntimeError("a reintegration is already in progress")
        self._frozen = {id(r) for r in self._records[:n_records]}

    def commit_frozen(self):
        """Reintegration succeeded: drop the frozen records."""
        done = [r for r in self._records if id(r) in self._frozen]
        for record in done:
            self.stats.reintegrated_records += 1
            self.stats.reintegrated_bytes += record.size
            self._unref(record)
        self._records = [r for r in self._records
                         if id(r) not in self._frozen]
        self._frozen = set()
        self._notify()
        return done

    def abort_frozen(self):
        """Reintegration failed: lift the barrier and re-optimize.

        Records that became superfluous while frozen (e.g. a store
        overwritten by a newer store appended during the attempt) are
        removed now, exactly as section 4.3.3 describes.
        """
        self._frozen = set()
        survivors = self._records
        self._records = []
        for record in survivors:
            self._unref(record)
        for record in survivors:
            self._optimize_and_insert(record)
        self._notify()

    def discard(self, records):
        """Drop specific records without reintegration accounting.

        Used when a record is found to be in conflict: it leaves the
        CML and becomes a user-visible conflict instead.
        """
        doomed = set(id(r) for r in records)
        kept = []
        for record in self._records:
            if id(record) in doomed:
                self._unref(record)
            else:
                kept.append(record)
        removed = len(self._records) - len(kept)
        self._records = kept
        self._frozen = set()
        self._notify()
        return removed

    def restore(self, records, next_seqno, stats):
        """Replace the whole log from persistent state (crash recovery).

        The barrier is gone, sequence numbering resumes at
        ``next_seqno``, and every fid of the old and the new log counts
        as changed.
        """
        self._changed_fids.update(self._fid_refs)
        self._fid_refs.clear()
        self._records = []
        for record in records:
            self._insert(record)
        self._frozen = set()
        self._seq = count(next_seqno)
        self.stats = stats
        self._notify()
