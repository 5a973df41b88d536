"""The exported name space: volumes mounted under ``/coda``.

A :class:`VolumeRegistry` maps mount prefixes like ``/coda/usr/hqb``
to volumes, mirroring Coda's location-transparent tree in which each
volume "forms a partial subtree of the name space and typically
contains the files of one user or project."
"""


def split_path(path):
    """Normalize ``path`` into a component list ('/a//b/' -> ['a', 'b'])."""
    return [part for part in path.split("/") if part]


def join_path(components):
    return "/" + "/".join(components)


class VolumeRegistry:
    """Mount table: path prefix -> volume.

    Two indexes filled by :meth:`mount` answer :meth:`by_id` (once per
    Vice fetch and validation) and :meth:`mount_of` in one lookup; a
    volume mounted twice, or two volumes sharing an id, resolve to the
    first one mounted.
    """

    def __init__(self):
        self._mounts = {}
        self._by_id = {}            # volid -> first volume mounted with it
        self._prefixes = {}         # volume (by identity) -> first prefix

    def mount(self, prefix, volume):
        key = tuple(split_path(prefix))
        if key in self._mounts:
            raise ValueError("mount point %r already in use" % (prefix,))
        self._mounts[key] = volume
        self._by_id.setdefault(volume.volid, volume)
        self._prefixes.setdefault(volume, key)

    def volumes(self):
        return list(self._mounts.values())

    def mount_of(self, volume):
        """The mount prefix components for ``volume``."""
        try:
            return self._prefixes[volume]
        except KeyError:
            raise KeyError(volume.name) from None

    def by_id(self, volid):
        return self._by_id[volid]
