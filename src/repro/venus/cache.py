"""The client file cache.

Entries hold object status, optionally contents, and the two validity
flags of the two-granularity coherence scheme: a per-object callback
and membership in a volume whose stamp is covered by a volume
callback.  Cache space is managed by a priority blend of hoard
priority and recency, as in Kistler's original design; dirty objects
(those referenced by CML records) are never evicted.
"""

from dataclasses import dataclass

from repro.venus.errors import NoSpaceError

#: Modelled metadata overhead per cache entry, bytes.
ENTRY_OVERHEAD = 256


@dataclass
class VolumeInfo:
    """Client-side knowledge about one volume."""

    volid: int
    stamp: object = None        # last validated version stamp (None = none)
    callback: bool = False      # volume callback believed valid

    def drop(self):
        self.stamp = None
        self.callback = False


class CacheEntry:
    """One cached object.

    ``__slots__`` because fleet-scale runs hold tens of thousands of
    entries and touch them millions of times.  ``content`` is a
    managed attribute: contents are immutable and only ever *replaced*
    (never resized in place), so the setter is the single point where
    an entry's space can change, and it keeps the owning
    :class:`CacheManager`'s incremental byte accounting exact.
    """

    __slots__ = ("fid", "otype", "path", "version", "length", "mtime",
                 "_content", "children", "callback", "hoard_priority",
                 "last_ref", "dirty", "_local", "_cache")

    def __init__(self, fid, otype, path=None):
        self.fid = fid
        self.otype = otype
        self.path = path
        self.version = None        # server version last known
        self.length = 0
        self.mtime = 0.0
        self._content = None       # Content, or None for status-only
        self.children = None       # name -> fid, for directories
        self.callback = False      # object callback believed valid
        self.hoard_priority = 0
        self.last_ref = 0.0
        self.dirty = False         # referenced by CML records
        self._local = False        # created locally, unknown to server
        self._cache = None         # owning CacheManager, while resident

    @property
    def local(self):
        """Created locally, unknown to the server.

        Managed like ``content``: the setter keeps the owning cache's
        per-volume local-entry counts exact, so "which volumes hold a
        non-local entry" is answered without scanning the table.
        """
        return self._local

    @local.setter
    def local(self, value):
        value = bool(value)
        if value == self._local:
            return
        self._local = value
        cache = self._cache
        if cache is not None:
            refs = cache._local_refs
            vol = self.fid.volume
            if value:
                refs[vol] = refs.get(vol, 0) + 1
            else:
                left = refs[vol] - 1
                if left:
                    refs[vol] = left
                else:
                    del refs[vol]

    @property
    def content(self):
        return self._content

    @content.setter
    def content(self, content):
        old = self._content
        self._content = content
        cache = self._cache
        if cache is not None:
            cache._used_bytes += ((content.size if content is not None
                                   else 0)
                                  - (old.size if old is not None else 0))

    @property
    def has_data(self):
        return self._content is not None or self.children is not None

    @property
    def space(self):
        data = self._content.size if self._content is not None else 0
        return ENTRY_OVERHEAD + data

    def apply_status(self, status):
        self.version = status.version
        self.length = status.length
        self.mtime = status.mtime

    def __repr__(self):
        return "<CacheEntry %s %s v%s%s%s>" % (
            self.fid, self.path, self.version,
            " data" if self.has_data else "",
            " dirty" if self.dirty else "")


class CacheManager:
    """Fid-indexed cache with priority eviction and space accounting."""

    def __init__(self, capacity_bytes=50_000 * 1024, logged_fids=()):
        self.capacity_bytes = capacity_bytes
        self._entries = {}
        # Dirty-flag bookkeeping (see refresh_dirty): a live view of
        # the fids the CML holds records for, and the entries whose
        # ``dirty`` disagreed with it when they were inserted.  An
        # entry inserted clean while the log is empty — every insert
        # of a read-only client — is never remembered.
        self._logged_fids = logged_fids
        self._unrefreshed = []
        self._volumes = {}
        self._ref_clock = 0
        self.evictions = 0
        # Incremental space accounting: maintained by insert/remove and
        # the CacheEntry.content setter, so _used_bytes is O(1) instead
        # of a sum over every entry (the former #1 hot frame of the
        # fleet benchmarks).
        self._used_bytes = 0
        # Entry counts per referenced volume id (Fid.volume is frozen,
        # so a resident entry's volume never changes): all entries, and
        # the local-only subset.  Together they answer "nothing stale"
        # and "which volumes need stamps" in O(#volumes) instead of a
        # table scan per hoard walk.
        self._volume_refs = {}
        self._local_refs = {}

    # -- lookup ----------------------------------------------------------

    def __len__(self):
        return len(self._entries)

    def get(self, fid):
        return self._entries.get(fid)

    def entries(self):
        return list(self._entries.values())

    def iter_entries(self):
        """Iterate resident entries without copying the table.

        For read-only scans (hoard walks, validity sweeps); callers
        that add or remove entries mid-scan must use :meth:`entries`.
        """
        return iter(self._entries.values())

    def entries_in_volume(self, volid):
        return [e for e in self._entries.values() if e.fid.volume == volid]

    def volume_info(self, volid):
        info = self._volumes.get(volid)
        if info is None:
            info = VolumeInfo(volid)
            self._volumes[volid] = info
        return info

    def volume_infos(self):
        return dict(self._volumes)

    def nonlocal_volumes(self):
        """Sorted ids of volumes holding at least one non-local entry."""
        local_refs = self._local_refs
        return sorted(vol for vol, count in self._volume_refs.items()
                      if count > local_refs.get(vol, 0))

    # -- mutation ----------------------------------------------------------

    def touch(self, entry, now):
        self._ref_clock += 1
        entry.last_ref = now

    def add(self, entry, now):
        """Insert ``entry``, evicting lower-priority objects if needed."""
        self.ensure_space(entry.space)
        self._insert(entry)
        self.touch(entry, now)
        return entry

    def adopt(self, entry):
        """Insert ``entry`` without eviction or recency update.

        For state restoration (crash recovery replaying an RVM
        snapshot that fit the same capacity): the entry enters the
        table with its recorded recency, and accounting stays exact
        without re-running eviction decisions the doomed incarnation
        already made.
        """
        return self._insert(entry)

    def _insert(self, entry):
        old = self._entries.get(entry.fid)
        if old is not None:
            self._detach(old)
        self._entries[entry.fid] = entry
        logged = self._logged_fids
        if entry.dirty != (bool(logged) and entry.fid in logged):
            self._unrefreshed.append(entry)
        entry._cache = self
        self._used_bytes += entry.space
        refs = self._volume_refs
        vol = entry.fid.volume
        refs[vol] = refs.get(vol, 0) + 1
        if entry._local:
            locals_ = self._local_refs
            locals_[vol] = locals_.get(vol, 0) + 1
        return entry

    def _detach(self, entry):
        entry._cache = None
        self._used_bytes -= entry.space
        vol = entry.fid.volume
        refs = self._volume_refs
        left = refs[vol] - 1
        if left:
            refs[vol] = left
        else:
            del refs[vol]
        if entry._local:
            locals_ = self._local_refs
            left = locals_[vol] - 1
            if left:
                locals_[vol] = left
            else:
                del locals_[vol]

    def remove(self, fid):
        entry = self._entries.pop(fid, None)
        if entry is not None:
            self._detach(entry)
        return entry

    def refresh_dirty(self, changed_fids):
        """Recompute ``dirty`` wherever it can differ from a full rescan.

        A full rescan would set every resident entry's flag to "the
        CML holds a record for my fid".  Since the previous refresh
        that can only have changed for ``changed_fids`` (fids that
        entered or left the log) and for entries inserted meanwhile
        with a disagreeing flag; every other flag is already right.
        """
        entries = self._entries
        logged = self._logged_fids
        for fid in changed_fids:
            entry = entries.get(fid)
            if entry is not None:
                entry.dirty = fid in logged
        if self._unrefreshed:
            for entry in self._unrefreshed:
                if entries.get(entry.fid) is entry:
                    entry.dirty = entry.fid in logged
            self._unrefreshed = []

    def ensure_space(self, nbytes):
        """Evict until ``nbytes`` fit; raises NoSpaceError if impossible."""
        if nbytes > self.capacity_bytes:
            raise NoSpaceError("object of %d bytes exceeds cache capacity"
                               % nbytes)
        while self.capacity_bytes - self._used_bytes < nbytes:
            victim = self._pick_victim()
            if victim is None:
                raise NoSpaceError(
                    "cache full of unevictable objects (%d bytes needed)"
                    % nbytes)
            self.evictions += 1
            del self._entries[victim.fid]
            self._detach(victim)

    def _pick_victim(self):
        """Lowest (hoard priority, recency) clean entry."""
        candidates = [e for e in self._entries.values()
                      if not e.dirty and not e.local and e.has_data]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda e: (e.hoard_priority, e.last_ref))

    # -- validity (two-granularity coherence) ------------------------------

    def invalid_entries(self):
        """Non-local entries not believed coherent, in table order.

        Equivalent to filtering :meth:`iter_entries` through
        :meth:`is_valid`, with the volume-table lookup hoisted out of
        a per-entry method call — this scan runs over the whole cache
        on every hoard walk's status phase.
        """
        # Volumes currently protected by a volume callback.  When they
        # cover every referenced volume, no entry can be stale —
        # regardless of per-entry flags — so the usual post-walk steady
        # state costs O(#volumes), not O(n).
        ok = {vid for vid, info in self._volumes.items()
              if info.callback}
        for vid in self._volume_refs:
            if vid not in ok:
                break
        else:
            return []
        return [e for e in self._entries.values()
                if not (e._local or e.callback)
                and e.fid.volume not in ok]

    def usable(self, fid, connected, want_data=True, now=None):
        """The one hit check: ``fid``'s entry if Venus may use it as is,
        else None.

        That is ``(has_data or not want_data) and (not connected or
        is_valid(entry))``, spelled out so a hit costs one call.  Given
        ``now``, a hit is also a reference and is touched (:meth:`touch`).
        """
        entry = self._entries.get(fid)
        if entry is None or (want_data and entry._content is None
                             and entry.children is None):
            return None
        if connected and not (entry._local or entry.callback):
            info = self._volumes.get(entry.fid.volume)
            if info is None or not info.callback:
                return None
        if now is not None:
            self._ref_clock += 1
            entry.last_ref = now
        return entry

    def is_valid(self, entry):
        """Believed coherent: object callback or volume callback."""
        if entry.local:
            return True
        if entry.callback:
            return True
        info = self._volumes.get(entry.fid.volume)
        return bool(info and info.callback)

    def break_object(self, fid):
        entry = self._entries.get(fid)
        if entry is not None:
            entry.callback = False

    def break_volume(self, volid):
        """A volume callback break: the stamp is stale too (section 4.2.2).

        Objects fall back on their individual callbacks, if any.
        """
        info = self._volumes.get(volid)
        if info is not None:
            info.drop()

    def drop_all_callbacks(self):
        """On disconnection, nothing can be trusted until revalidation.

        Volume *stamps* survive — presenting them on reconnection is
        the whole point of rapid validation — but callback promises do
        not.
        """
        for entry in self._entries.values():
            entry.callback = False
        for info in self._volumes.values():
            info.callback = False
