"""Vnodes: files and directories.

Each object carries a version number incremented on every update; the
server also bumps the containing volume's stamp (section 4.2.1).  A
:class:`VnodeStatus` is the ~100-byte attribute block that servers
return from GetAttr and that Venus uses for miss-cost estimation.
"""

import enum
from dataclasses import dataclass

from repro.fs.content import Content
from repro.fs.fid import Fid


class ObjectType(enum.Enum):
    FILE = "file"
    DIRECTORY = "directory"


#: Modelled metadata bytes a directory consumes per entry (for CML and
#: transfer accounting of directory operations).
DIR_ENTRY_BYTES = 32


@dataclass
class VnodeStatus:
    """The status (attribute) block for one object."""

    fid: Fid
    otype: ObjectType
    length: int
    version: int
    mtime: float

    wire_size = 100  # paper section 4.4.1


class Vnode:
    """One file-system object as stored by a server or cached by Venus."""

    def __init__(self, fid, otype, mtime=0.0, content=None):
        self.fid = fid
        self.otype = otype
        self.version = 1
        self.mtime = mtime
        if otype is ObjectType.FILE:
            self.content = content if content is not None else Content.empty()
        else:
            self.content = None
        self.children = {} if otype is ObjectType.DIRECTORY else None

    @property
    def length(self):
        """Logical size in bytes (files: contents; dirs: entry table)."""
        if self.otype is ObjectType.FILE:
            return self.content.size
        return len(self.children) * DIR_ENTRY_BYTES

    def status(self):
        return VnodeStatus(fid=self.fid, otype=self.otype,
                           length=self.length, version=self.version,
                           mtime=self.mtime)

    def is_dir(self):
        return self.otype is ObjectType.DIRECTORY

    def is_file(self):
        return self.otype is ObjectType.FILE

    def lookup(self, name):
        """Child fid by name, or None (directories only)."""
        if not self.is_dir():
            raise NotADirectoryError(str(self.fid))
        return self.children.get(name)

    def clone(self):
        """A copy sharing content (contents are immutable values)."""
        twin = Vnode(self.fid, self.otype, mtime=self.mtime,
                     content=self.content)
        twin.version = self.version
        if self.children is not None:
            twin.children = dict(self.children)
        return twin

    def __repr__(self):
        return "<Vnode %s %s v%d %dB>" % (
            self.fid, self.otype.value, self.version, self.length)
