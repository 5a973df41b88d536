"""Server-side persistence costs and fragment assembly.

Fragmented transfer (section 4.3.5): when a single store record's file
is larger than the reintegration chunk size, Venus ships it as a
series of fragments of at most the chunk size.  "Atomicity is
preserved in spite of fragmentation because the server does not
logically attempt reintegration until it has received the entire
file."  The :class:`FragmentStore` holds partially shipped files, keyed
by client and CML sequence number, so an interrupted transfer resumes
after the last successful fragment rather than restarting.
"""

from dataclasses import dataclass, field


# CPU/disk seconds the server spends above the transport layer.
# ``REINTEGRATION_FIXED`` is the per-transaction commitment cost whose
# amortization motivates large chunks at high bandwidth (section
# 4.3.5); the others are per-item handling costs.
REINTEGRATION_FIXED = 0.150
PER_RECORD = 0.003
PER_OBJECT_VALIDATE = 0.0005
PER_OPERATION = 0.005      # connected-mode update ops
PER_FETCH = 0.005          # status or data fetch setup


@dataclass
class _PartialFile:
    total_size: int
    fragments: dict = field(default_factory=dict)   # index -> bytes

    @property
    def received(self):
        return sum(self.fragments.values())

    @property
    def complete(self):
        return self.received >= self.total_size


class FragmentStore:
    """Accumulates pre-shipped file fragments awaiting reintegration."""

    def __init__(self):
        self._partial = {}

    def begin(self, key, total_size):
        """Ensure an assembly buffer for ``key`` exists (idempotent).

        A retry with a different total size discards the stale buffer —
        the client must have re-logged the store with new contents.
        """
        entry = self._partial.get(key)
        if entry is None or entry.total_size != total_size:
            entry = _PartialFile(total_size=total_size)
            self._partial[key] = entry
        return entry

    def put(self, key, index, nbytes, total_size):
        """Record fragment ``index``; returns bytes received so far."""
        entry = self.begin(key, total_size)
        entry.fragments[index] = nbytes
        return entry.received

    def is_complete(self, key, total_size):
        entry = self._partial.get(key)
        return entry is not None and entry.total_size == total_size \
            and entry.complete

    def consume(self, key):
        """Drop the buffer once its store record has been applied."""
        self._partial.pop(key, None)
