"""The trace-driven CML simulator (the paper's "Venus simulator").

Section 4.3.4: "The traces were used as input to a Venus simulator.
This simulator is the actual Venus code, modified to accept requests
from a trace."  Here, likewise, the *actual* CML implementation
(:class:`repro.venus.cml.ClientModifyLog`) is driven from a trace with
no live server: before each record is appended, records older than the
aging window are deemed reintegrated and removed, exactly modelling a
trickle daemon with ample bandwidth.

Outputs: the data saved by optimizations (the Figure 4 metric), the
final CML size, and the Figure 11 characteristics (references,
updates, unoptimized/optimized CML, compressibility).
"""

from dataclasses import dataclass
from itertools import count

from repro.fs.content import SyntheticContent
from repro.fs.fid import Fid
from repro.trace.records import TraceOp
from repro.venus.cml import ClientModifyLog, CmlOp, CmlRecord


@dataclass
class SimulationReport:
    """What one simulator run observed."""

    trace: str
    aging_window: float
    references: int
    updates: int
    appended_bytes: int         # unoptimized CML volume
    optimized_bytes: int        # data saved by optimizations
    reintegrated_bytes: int     # data aged out (shipped)
    final_cml_bytes: int        # left in the log at the end

    @property
    def compressibility(self):
        """optimized / unoptimized, the Figure 10/11 metric."""
        if not self.appended_bytes:
            return 0.0
        return self.optimized_bytes / self.appended_bytes

    @property
    def optimized_cml_bytes(self):
        """What the CML would hold with no reintegration at all."""
        return self.appended_bytes - self.optimized_bytes


class _PathTable:
    """Path -> fid bookkeeping for a serverless replay."""

    def __init__(self):
        self._fids = {}
        self._dir_fids = {}
        self._counter = count(1)

    def dir_fid(self, path):
        directory = path.rsplit("/", 1)[0] if "/" in path else "/"
        fid = self._dir_fids.get(directory)
        if fid is None:
            fid = self._alloc()
            self._dir_fids[directory] = fid
        return fid

    def fid(self, path, create=False):
        fid = self._fids.get(path)
        if fid is None and create:
            fid = self._alloc()
            self._fids[path] = fid
        return fid

    def forget(self, path):
        return self._fids.pop(path, None)

    def _alloc(self):
        n = next(self._counter)
        return Fid(1, n, n)


class CmlSimulator:
    """Runs traces through the real CML code with an aging window."""

    def __init__(self, aging_window=600.0):
        self.aging_window = aging_window

    def run(self, segment):
        """Simulate ``segment``; returns a :class:`SimulationReport`.

        The segment's tree files are already known to the server, so
        their first store is an overwrite rather than a create.
        """
        cml = ClientModifyLog()
        paths = _PathTable()
        known = set()
        for path, (kind, _size) in segment.tree.items():
            if kind == "file":
                paths.fid(path, create=True)
                known.add(path)
        updates = 0
        for record in segment.records:
            self._age_out(cml, record.time)
            if not record.is_update:
                continue
            updates += 1
            self._apply(cml, paths, known, record)
        # Final age-out at the end of the trace.
        self._age_out(cml, segment.duration)
        stats = cml.stats
        return SimulationReport(
            trace=segment.name,
            aging_window=self.aging_window,
            references=segment.references,
            updates=updates,
            appended_bytes=stats.appended_bytes,
            optimized_bytes=stats.optimized_bytes,
            reintegrated_bytes=stats.reintegrated_bytes,
            final_cml_bytes=cml.size_bytes)

    # ------------------------------------------------------------------

    def _age_out(self, cml, now):
        """Reintegrate (remove) every record older than the window."""
        eligible = cml.eligible_records(now, self.aging_window)
        if eligible:
            cml.freeze(len(eligible))
            cml.commit_frozen()

    def _append(self, cml, record, now):
        cml.append(record, now)

    def _apply(self, cml, paths, known, record):
        op = record.op
        now = record.time
        if op is TraceOp.WRITE:
            fresh = record.path not in known
            fid = paths.fid(record.path, create=True)
            if fresh:
                known.add(record.path)
                self._append(cml, CmlRecord(
                    op=CmlOp.CREATE, fid=fid,
                    parent=paths.dir_fid(record.path),
                    name=record.path.rsplit("/", 1)[-1]), now)
            self._append(cml, CmlRecord(
                op=CmlOp.STORE, fid=fid,
                content=SyntheticContent(record.size)), now)
        elif op is TraceOp.UNLINK:
            fid = paths.fid(record.path)
            if fid is None:
                return
            self._append(cml, CmlRecord(
                op=CmlOp.UNLINK, fid=fid,
                parent=paths.dir_fid(record.path),
                name=record.path.rsplit("/", 1)[-1]), now)
            paths.forget(record.path)
            known.discard(record.path)
        elif op is TraceOp.MKDIR:
            fid = paths.fid(record.path, create=True)
            known.add(record.path)
            self._append(cml, CmlRecord(
                op=CmlOp.MKDIR, fid=fid,
                parent=paths.dir_fid(record.path),
                name=record.path.rsplit("/", 1)[-1]), now)
        elif op is TraceOp.RMDIR:
            fid = paths.fid(record.path)
            if fid is None:
                return
            self._append(cml, CmlRecord(
                op=CmlOp.RMDIR, fid=fid,
                parent=paths.dir_fid(record.path),
                name=record.path.rsplit("/", 1)[-1]), now)
            paths.forget(record.path)
            known.discard(record.path)


def savings_curve(segment, aging_windows):
    """Optimization savings for each aging window (Figure 4's metric).

    Returns ``{A: optimized_bytes}``.
    """
    results = {}
    for window in aging_windows:
        simulator = CmlSimulator(aging_window=window)
        results[window] = simulator.run(segment).optimized_bytes
    return results
