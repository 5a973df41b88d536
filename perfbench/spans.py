"""In-memory spans recorded from the benchmark's own files.

A span wraps one call into a layer's public function: name, start,
end, the span that caused it, and free-form attributes (transfer cell,
replay segment, ...).  Spans are kept in memory and written out by the
parent when the run ends; nothing inside ``src/repro`` is touched.

Timed repetitions run with the recorder disabled, so the end-to-end
metrics never pay for tracing.
"""

import time
from contextlib import contextmanager


class Spans:
    """A span recorder; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.records = []
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        if not self.enabled:
            yield
            return
        record = {"id": len(self.records), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        record.update(attrs)
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def durations(records, name):
    """Total seconds spent in spans called ``name``."""
    return sum(record["end"] - record["start"] for record in records
               if record["name"] == name)


def self_seconds(records):
    """``{span id: duration minus the part its children cover}``."""
    own = {record["id"]: record["end"] - record["start"]
           for record in records}
    for record in records:
        if record["parent"] is not None:
            own[record["parent"]] -= record["end"] - record["start"]
    return own
