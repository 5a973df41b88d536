"""Conflict representation and repair.

Optimistic replica control means update conflicts can surface at
reintegration: "The system ensures their detection and confinement,
and provides mechanisms to help users recover from them" (section 2.2,
citing Kumar's repair work).  This module is that recovery mechanism
in miniature.

When a CML record fails reintegration, Venus removes it from the log
and parks it here as a :class:`Conflict` that preserves *both* sides:
the local update (the record, with its contents) and a pointer to the
object whose server state now differs.  The user (or an application)
lists conflicts and resolves each one:

* ``keep="theirs"`` — discard the local update; the cache already
  refetches the server's version on demand;
* ``keep="mine"`` — reapply the local update on top of the current
  server state (a fresh store/operation at today's version), making
  the local version the newest one;
* for removed-object conflicts, ``keep="mine"`` recreates the object
  under a recovery name.
"""

from dataclasses import dataclass
from itertools import count
from typing import Optional

from repro.venus.cml import CmlOp


@dataclass
class Conflict:
    """One confined reintegration conflict."""

    ident: int
    record: object                  # the CmlRecord that failed
    reason: str
    path: Optional[str]             # best-known path of the object
    detected_at: float
    resolved: Optional[str] = None  # None | "mine" | "theirs"

    def describe(self):
        return "#%d %s %s (%s)" % (
            self.ident, self.record.op.value,
            self.path or self.record.fid, self.reason)


class ConflictStore:
    """Venus's parking lot for unresolved conflicts."""

    def __init__(self):
        self._conflicts = []
        self._ids = count(1)

    def __len__(self):
        return len(self._conflicts)

    def add(self, record, reason, path, now):
        conflict = Conflict(ident=next(self._ids), record=record,
                            reason=reason, path=path, detected_at=now)
        self._conflicts.append(conflict)
        return conflict

    def pending(self):
        return [c for c in self._conflicts if c.resolved is None]

    def all(self):
        return list(self._conflicts)

    def get(self, ident):
        for conflict in self._conflicts:
            if conflict.ident == ident:
                return conflict
        raise KeyError("no conflict #%d" % ident)


class Repairer:
    """Applies resolutions through the Venus API."""

    #: Name suffix for objects recreated during repair.
    RECOVERY_SUFFIX = ".conflict"

    def __init__(self, venus):
        self.venus = venus

    def resolve(self, conflict, keep):
        """Generator: resolve one conflict.

        ``keep="theirs"`` simply marks it resolved — the cache refetches
        the server version on next use.  ``keep="mine"`` reapplies the
        local update against current server state.
        """
        if conflict.resolved is not None:
            raise ValueError("conflict #%d already resolved"
                             % conflict.ident)
        if keep not in ("mine", "theirs"):
            raise ValueError("keep must be 'mine' or 'theirs'")
        if keep == "theirs":
            conflict.resolved = "theirs"
            return conflict
        yield from self._reapply(conflict)
        conflict.resolved = "mine"
        return conflict

    def _reapply(self, conflict):
        venus = self.venus
        record = conflict.record
        path = conflict.path
        if path is None:
            raise ValueError(
                "cannot reapply conflict #%d: path unknown"
                % conflict.ident)
        if record.op is CmlOp.STORE:
            try:
                # Refresh the object's status first: the reapplied
                # store must be logged against the *current* server
                # version or it would just conflict again.
                yield from venus.stat(path)
                yield from venus.write_file(path, record.content)
            except FileNotFoundError:
                # The object was removed on the server: recreate it
                # under a recovery name beside the original.
                yield from venus.write_file(
                    path + self.RECOVERY_SUFFIX, record.content)
        elif record.op in (CmlOp.CREATE, CmlOp.MKDIR):
            # A name collision: recreate under a recovery name.
            recovery = path + self.RECOVERY_SUFFIX
            if record.op is CmlOp.MKDIR:
                yield from venus.mkdir(recovery)
            else:
                yield from venus.write_file(
                    recovery, record.content if record.content
                    is not None else b"")
        elif record.op is CmlOp.UNLINK:
            try:
                yield from venus.unlink(path)
            except FileNotFoundError:
                pass    # already gone: nothing to keep
        else:   # RMDIR
            try:
                yield from venus.rmdir(path)
            except (FileNotFoundError, OSError):
                pass    # gone, or no longer empty — leave it
