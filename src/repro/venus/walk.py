"""Hoard walks (sections 2.2 and 4.4.3).

A walk runs in two phases.  The *status walk* validates cached state
and determines which objects should be fetched; thanks to volume
callbacks it usually involves little traffic.  The *data walk* fetches
the chosen contents.  When weakly connected, an interactive phase
between the two lets the user limit the data walk (Figure 6): objects
whose estimated service time is within the patience threshold are
pre-approved; the rest need explicit approval, or time out to "fetch
everything" on an unattended client.

At the end of a walk every cached object is known valid, so Venus
caches fresh volume version stamps — the moment of mutual consistency
that makes rapid validation after a disconnection possible.
"""

from dataclasses import dataclass

from repro.fs.objects import ObjectType
from repro.rpc2.errors import ConnectionDead
from repro.venus.advice import FetchCandidate
from repro.venus.errors import CacheMissError, NoSpaceError
from repro.venus.states import VenusState


@dataclass
class WalkReport:
    """What one hoard walk did."""

    started: float = 0.0
    finished: float = 0.0
    candidates: int = 0
    preapproved: int = 0
    user_approved: int = 0
    suppressed: int = 0
    skipped: int = 0
    fetched: int = 0
    fetched_bytes: int = 0
    validated_objects: int = 0
    stamps_acquired: int = 0


class HoardWalker:
    """Executes hoard walks for one Venus instance."""

    def __init__(self, venus):
        self.venus = venus
        self.sim = venus.sim

    def walk(self):
        """Generator: run one complete hoard walk."""
        venus = self.venus
        report = WalkReport(started=self.sim.now)
        if venus.state.state is VenusState.EMULATING:
            report.finished = self.sim.now
            return report

        # ---- Phase 1: status walk --------------------------------------
        stale = venus.cache.invalid_entries()
        if stale:
            report.validated_objects = yield from \
                venus.validator.validate_objects(stale)
        candidates = yield from self._status_walk()
        report.candidates = len(candidates)

        # ---- Interactive phase (weakly connected only) ------------------
        approved = [c for c in candidates if c.preapproved]
        report.preapproved = len(approved)
        pending = [c for c in candidates if not c.preapproved]
        if pending and venus.state.state is VenusState.WRITE_DISCONNECTED:
            if venus.user.delay_seconds:
                yield self.sim.sleep(venus.user.delay_seconds)
            ok_paths, stop_paths = venus.user.approve_fetches(candidates)
            venus.suppressed_fetches.update(stop_paths)
            report.suppressed += len(stop_paths)
            by_path = {c.path: c for c in pending}
            for path in ok_paths:
                candidate = by_path.pop(path, None)
                if candidate is not None:
                    approved.append(candidate)
                    report.user_approved += 1
            report.skipped += len(by_path)
        elif pending:
            # Strongly connected: everything fetches, no questions.
            approved.extend(pending)

        # ---- Phase 2: data walk -----------------------------------------
        approved.sort(key=lambda c: -c.priority)
        for candidate in approved:
            try:
                entry = yield from venus._fetch_by_path(candidate.path)
            except (CacheMissError, FileNotFoundError, NoSpaceError):
                report.skipped += 1
                continue
            if entry is None:
                report.skipped += 1
                continue
            report.fetched += 1
            report.fetched_bytes += candidate.size_bytes
        # ---- Acquire volume stamps (section 4.2.1) ----------------------
        report.stamps_acquired = yield from self._acquire_stamps()
        report.finished = self.sim.now
        return report

    # ------------------------------------------------------------------

    def _status_walk(self):
        """Generator: expand the HDB into fetch candidates."""
        venus = self.venus
        candidates = []
        seen = set()
        for hoard_entry in venus.hdb.entries():
            yield from self._consider(hoard_entry.path, hoard_entry.priority,
                                      hoard_entry.children, candidates, seen,
                                      depth=0)
        return candidates

    def _consider(self, path, priority, recurse, candidates, seen, depth):
        """Generator: evaluate one path (and children if requested)."""
        venus = self.venus
        if path in seen or depth > 16:
            return
        seen.add(path)
        if path in venus.suppressed_fetches:
            return
        try:
            entry = yield from venus._lookup(path, want_data=False)
        except (FileNotFoundError, NotADirectoryError, CacheMissError):
            return
        except ConnectionDead:
            venus.handle_disconnection()
            return
        entry.hoard_priority = max(entry.hoard_priority, priority)
        if entry.otype is ObjectType.DIRECTORY:
            # Directories fetch in the status walk (they are small and
            # needed to expand children).
            if not entry.has_data or not venus.cache.is_valid(entry):
                try:
                    yield from venus._fetch_object(entry.fid, path)
                except (FileNotFoundError, CacheMissError):
                    return
            if recurse and entry.children:
                for name in sorted(entry.children):
                    yield from self._consider(path + "/" + name, priority,
                                              recurse, candidates, seen,
                                              depth + 1)
            return
        needs_data = (entry.content is None
                      or not venus.cache.is_valid(entry))
        if not needs_data:
            return
        size = entry.length
        cost = venus.estimator.expected_transfer_time(
            size, default_bps=venus.endpoint.default_bps)
        preapproved = (venus.state.state is not
                       VenusState.WRITE_DISCONNECTED
                       or venus.patience.approves(priority, cost))
        candidates.append(FetchCandidate(
            path=path, priority=priority, size_bytes=size,
            cost_seconds=cost, preapproved=preapproved))

    def _acquire_stamps(self):
        """Generator: cache volume stamps for all cached volumes."""
        venus = self.venus
        volids = venus.cache.nonlocal_volumes()
        if not volids or not venus.config.use_volume_callbacks:
            return 0
        result = yield from venus._call_or_disconnect(
            "GetVolumeStamps", {"volumes": volids},
            args_size=8 + 8 * len(volids))
        if result is None:
            return 0
        stamps = result.result["stamps"]
        for volid, stamp in stamps.items():
            info = venus.cache.volume_info(volid)
            info.stamp = stamp
            info.callback = True
        return len(stamps)
