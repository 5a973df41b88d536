"""Exporters: the timeline and the metrics as JSONL.

One JSON object per line, keys sorted; non-JSON values (Fids, enums)
degrade to ``str``.
"""

import json


def _jsonable(value):
    """Fallback serializer for simulation objects (Fid, enums, ...)."""
    return str(value)


def _dumps(obj):
    return json.dumps(obj, default=_jsonable, sort_keys=True)


def _open_for_write(path_or_file):
    if hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, "w", encoding="utf-8", newline=""), True


# ----------------------------------------------------------------------
# Events

def write_events_jsonl(events, path_or_file):
    """Write the timeline as JSONL; returns the number of lines."""
    stream, owned = _open_for_write(path_or_file)
    try:
        n = 0
        for event in events:
            stream.write(_dumps(event.to_row()))
            stream.write("\n")
            n += 1
        return n
    finally:
        if owned:
            stream.close()


# ----------------------------------------------------------------------
# Metrics

def write_metrics_jsonl(registry, path_or_file):
    """One JSON object per instrument; returns the number of lines."""
    stream, owned = _open_for_write(path_or_file)
    try:
        rows = registry.rows()
        for row in rows:
            stream.write(_dumps(row))
            stream.write("\n")
        return len(rows)
    finally:
        if owned:
            stream.close()
