"""Simulation-wide observability: metrics, event tracing, exporters.

The paper's argument is carried entirely by measurements; this package
makes the reproduction measurable without editing source.  One
:class:`Observatory` installed on a simulator (``Observatory(sim)``)
observes the whole stack: the kernel counts dispatches, links account
bytes and drops, RPC2 records latencies and retransmits, Venus records
cache hits/misses and CML growth, trickle records chunk outcomes, and
the server records reintegration replay — all stamped with simulation
time, exportable to JSONL, and summarized by
:func:`~repro.obs.report.summary`.

Observation never perturbs the schedule: the default ``sim.obs`` is
:data:`NULL_OBS` and every instrumentation site is guarded by
``obs.enabled``, so uninstrumented runs execute exactly the pre-
instrumentation event sequence (enforced by the determinism
regression test).
"""

from repro.obs.events import (
    EVENT_KINDS,
    TraceEvent,
    TraceRecorder,
)
from repro.obs.export import (
    write_events_jsonl,
    write_metrics_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.observatory import NULL_OBS, NullObservatory, Observatory
from repro.obs.report import summary

__all__ = [
    "Counter",
    "EVENT_KINDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "NullObservatory",
    "Observatory",
    "TraceEvent",
    "TraceRecorder",
    "summary",
    "write_events_jsonl",
    "write_metrics_jsonl",
]
