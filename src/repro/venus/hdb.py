"""The hoard database (HDB).

"In anticipation of disconnection, users may hoard data in the cache
by providing a prioritized list of files in a per-client hoard
database."  An entry names a path, a priority, and optionally covers
the directory's descendants (meta-expansion, the ``d+`` of real hoard
profiles).  The HDB is consulted by hoard walks (what to fetch) and by
the miss handler (how patient the user is about an object).
"""

from dataclasses import dataclass

from repro.fs.namespace import split_path


@dataclass
class HoardEntry:
    path: str
    priority: int
    children: bool = False    # also cover descendants

    def covers(self, path):
        """True if this entry applies to ``path``."""
        if path == self.path:
            return True
        if not self.children:
            return False
        prefix = split_path(self.path)
        parts = split_path(path)
        return parts[:len(prefix)] == prefix


class HoardDatabase:
    """The per-client prioritized hoard list."""

    def __init__(self):
        self._entries = {}

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())

    def add(self, path, priority, children=False):
        """Add or replace the hoard entry for ``path``."""
        if priority < 0:
            raise ValueError("negative hoard priority")
        entry = HoardEntry(path=path, priority=priority, children=children)
        self._entries[path] = entry
        return entry

    def priority_for(self, path):
        """Highest priority of any entry covering ``path`` (0 if none)."""
        best = 0
        for entry in self._entries.values():
            if entry.covers(path):
                best = max(best, entry.priority)
        return best

    def entries(self):
        """Entries sorted by descending priority (walk order)."""
        return sorted(self._entries.values(),
                      key=lambda e: (-e.priority, e.path))
