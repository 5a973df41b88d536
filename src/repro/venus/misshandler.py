"""Cache miss records and the miss log (section 4.4.1, Figure 5).

When a weakly-connected miss would take longer than the user's
patience threshold, Venus "returns a cache miss error and records the
miss."  The miss log feeds the Figure 5 screen: each record names the
object, the referencing program, and the cost estimate that caused the
refusal.
"""

from dataclasses import dataclass
from typing import Optional


@dataclass
class MissRecord:
    """One refused (or failed) cache miss."""

    path: str
    time: float
    program: Optional[str] = None
    size_bytes: Optional[int] = None
    estimated_seconds: Optional[float] = None
    priority: int = 0
    reason: str = "patience"      # "patience" or "disconnected"


class MissLog:
    """Misses since the user last reviewed them."""

    def __init__(self):
        self._records = []
        self.total_recorded = 0

    def __len__(self):
        return len(self._records)

    def record(self, miss):
        self._records.append(miss)
        self.total_recorded += 1

    def drain(self):
        """Return and clear pending misses (the Figure 5 interaction)."""
        records, self._records = self._records, []
        return records
