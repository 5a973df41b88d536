"""Trace record schema.

Coda uses the open-close session semantics of AFS, so traces record
whole-file sessions, not individual reads and writes: "Updates ...
only refers to operations such as close after write, and mkdir.
References includes, in addition, operations such as close after read,
stat, and lookup" (Figure 11's caption).

The operation set is exactly what the shipped workloads emit (a ratchet
test holds it there).  Replaying real DFSTrace files would also need
rename, link, symlink and setattr, end to end through Venus and Vice.
"""

import enum
from dataclasses import dataclass
from typing import Optional


class TraceOp(enum.Enum):
    READ = "read"          # close after read (whole-file session)
    WRITE = "write"        # close after write
    STAT = "stat"
    LOOKUP = "lookup"
    READDIR = "readdir"
    MKDIR = "mkdir"
    RMDIR = "rmdir"
    UNLINK = "unlink"

    # Members are singletons that compare by identity, so the identity
    # hash is a valid one, and a C call: Enum's ``hash(self._name_)``
    # is a Python call on every dict or set probe, two per replayed
    # record (the update count and the dispatch).
    __hash__ = object.__hash__


#: Operations that mutate state (the "Updates" column of Figure 11).
UPDATE_OPS = frozenset({
    TraceOp.WRITE, TraceOp.MKDIR, TraceOp.RMDIR, TraceOp.UNLINK,
})


@dataclass
class TraceRecord:
    """One traced file system operation."""

    time: float
    op: TraceOp
    path: str
    size: int = 0                      # bytes, for WRITE
    program: Optional[str] = None      # referencing program (Figure 5)

    @property
    def is_update(self):
        return self.op in UPDATE_OPS


@dataclass
class TraceSegment:
    """A generated trace plus the tree it runs against."""

    name: str
    duration: float
    records: list
    tree: dict                  # path -> ("dir", 0) | ("file", size)
    spec: object = None

    @property
    def references(self):
        return len(self.records)
