"""Volumes: partial subtrees of the name space with version stamps.

"A server now maintains version stamps for each of its volumes, in
addition to stamps on individual objects.  When an object is updated,
the server increments the version stamp of the object and that of its
containing volume." (section 4.2.1)
"""

from itertools import count

from repro.fs.fid import Fid
from repro.fs.objects import ObjectType, Vnode


class Volume:
    """A collection of vnodes rooted at one directory."""

    def __init__(self, volid, name):
        self.volid = volid
        self.name = name
        self.stamp = 1
        self.vnodes = {}
        self._vnode_counter = count(1)
        self._uniq_counter = count(1)
        root_fid = self.alloc_fid()
        self.root = Vnode(root_fid, ObjectType.DIRECTORY)
        self.vnodes[root_fid] = self.root

    @property
    def root_fid(self):
        return self.root.fid

    def alloc_fid(self):
        return Fid(self.volid, next(self._vnode_counter),
                   next(self._uniq_counter))

    def get(self, fid):
        """Vnode by fid, or None if absent (deleted or never existed)."""
        return self.vnodes.get(fid)

    def require(self, fid):
        vnode = self.vnodes.get(fid)
        if vnode is None:
            raise KeyError("no object %s in volume %s" % (fid, self.name))
        return vnode

    def add(self, vnode):
        if vnode.fid.volume != self.volid:
            raise ValueError("fid %s not of volume %d"
                             % (vnode.fid, self.volid))
        self.vnodes[vnode.fid] = vnode

    def remove(self, fid):
        self.vnodes.pop(fid, None)

    def bump(self, vnode, mtime=None):
        """Record an update: bump the object and volume stamps."""
        vnode.version += 1
        if mtime is not None:
            vnode.mtime = mtime
        self.stamp += 1

    def __repr__(self):
        return "<Volume %d %r stamp=%d objects=%d>" % (
            self.volid, self.name, self.stamp, len(self.vnodes))
