"""The human-readable summary report.

Renders one observatory's metrics and timeline as the report the
paper's evaluation sections would want on a single screen: per-link
byte/packet accounting, RPC latency histograms and traffic mix,
cache hit/miss counters, the CML length over time, reintegration
chunk outcomes, and validation RPC counts.
"""

import math

from repro.obs.metrics import Counter, Gauge, Histogram

_BAR_WIDTH = 30
#: Rows a downsampled series keeps, first and last included.
_SERIES_ROWS = 12


def _bar(fraction):
    filled = int(round(fraction * _BAR_WIDTH))
    return "#" * filled + "." * (_BAR_WIDTH - filled)


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e9:
            return "%d" % int(value)
        return "%.3f" % value
    return str(value)


def _section(title):
    return [title, "-" * len(title)]


def _counter_table(instruments, heading):
    """Lines for a block of counters: ``labels  value``."""
    lines = _section(heading)
    if not instruments:
        lines.append("  (none)")
        return lines
    width = max(len(inst.label_string) or 1 for inst in instruments)
    for inst in instruments:
        label = inst.label_string or "(total)"
        lines.append("  %-*s  %12s  %s"
                     % (width, label, _fmt(inst.value), inst.name))
    return lines


def _histogram_lines(hist):
    lines = ["  %s{%s}" % (hist.name, hist.label_string),
             "    count=%s  mean=%s  min=%s  max=%s  p50<=%s  p95<=%s"
             % (_fmt(hist.count), _fmt(hist.mean), _fmt(hist.min),
                _fmt(hist.max), _fmt(hist.quantile(0.50)),
                _fmt(hist.quantile(0.95)))]
    if hist.count:
        peak = max(hist.counts) or 1
        for bound, count in hist.bucket_rows():
            if not count:
                continue
            label = "+inf" if math.isinf(bound) else "%g" % bound
            lines.append("    <=%8s  %6d  %s"
                         % (label, count, _bar(count / peak)))
    return lines


def _series_lines(points, value_label):
    """Downsample a ``[(time, value), ...]`` series into table lines."""
    if not points:
        return ["  (no samples)"]
    if len(points) > _SERIES_ROWS:
        stride = (len(points) - 1) / (_SERIES_ROWS - 1)
        picked = [points[round(i * stride)] for i in range(_SERIES_ROWS)]
        # Keep first and last exactly.
        picked[0], picked[-1] = points[0], points[-1]
    else:
        picked = points
    peak = max(value for _t, value in points) or 1
    lines = ["  %10s  %10s" % ("time (s)", value_label)]
    for when, value in picked:
        lines.append("  %10.1f  %10s  %s"
                     % (when, _fmt(value), _bar(value / peak)))
    return lines


def cml_series(observatory):
    """CML length in records over time from cml_append/reintegration
    events."""
    points = []
    for event in observatory.trace.events:
        if event.kind == "cml_append":
            points.append((event.time, event.fields.get("records", 0)))
        elif (event.kind == "reintegration_chunk"
              and event.fields.get("status") == "committed"):
            points.append((event.time, event.fields.get("cml_records", 0)))
    return points


def summary(observatory):
    """The full report as one string."""
    metrics = observatory.metrics
    trace = observatory.trace
    lines = _section("Observability summary")
    lines.append("  simulation time: %s s" % _fmt(observatory.time()))
    lines.append("  trace events:    %d recorded" % len(trace.events))
    lines.append("  instruments:     %d" % len(metrics))
    lines.append("")

    # Simulator -------------------------------------------------------
    dispatched = metrics.total("sim.events_dispatched")
    depth = metrics.find("sim.queue_depth")
    if dispatched or depth is not None:
        lines += _section("Simulator")
        lines.append("  events dispatched: %s" % _fmt(dispatched))
        if depth is not None:
            lines.append("  queue depth:       now=%s peak=%s"
                         % (_fmt(depth.value), _fmt(depth.max_value)))
        lines.append("")

    # Links -----------------------------------------------------------
    link_counters = metrics.with_prefix("link.")
    if link_counters:
        lines += _counter_table(link_counters, "Links (per direction)")
        lines.append("")

    # RPC -------------------------------------------------------------
    packet_counters = metrics.with_name("rpc.packets_out")
    byte_counters = metrics.with_name("rpc.bytes_out")
    latency = [inst for inst in metrics.with_name("rpc.latency_seconds")
               if isinstance(inst, Histogram)]
    retrans = metrics.with_prefix("rpc.retransmits") \
        + metrics.with_prefix("sftp.retransmits")
    if packet_counters or latency:
        lines += _section("RPC traffic")
        total_bytes = sum(c.value for c in byte_counters)
        for inst in byte_counters:
            share = inst.value / total_bytes if total_bytes else 0.0
            lines.append("  %-40s %10s B  %5.1f%%"
                         % (inst.label_string, _fmt(inst.value),
                            100.0 * share))
        if packet_counters:
            lines.append("  packets out: %s"
                         % _fmt(sum(c.value for c in packet_counters)))
        if retrans:
            lines.append("  retransmits: %s"
                         % _fmt(sum(c.value for c in retrans)))
        if latency:
            lines.append("  latency histograms:")
            for hist in latency:
                lines += _histogram_lines(hist)
        lines.append("")

    # Cache -----------------------------------------------------------
    hits = metrics.with_name("cache.hits")
    misses = metrics.with_name("cache.misses")
    if hits or misses:
        lines += _counter_table(hits + misses, "Cache references")
        total_hits = sum(c.value for c in hits)
        total_misses = sum(c.value for c in misses)
        total = total_hits + total_misses
        if total:
            lines.append("  hit ratio: %.1f%% (%d/%d)"
                         % (100.0 * total_hits / total, total_hits, total))
        lines.append("")

    # CML -------------------------------------------------------------
    cml_gauges = metrics.with_prefix("cml.")
    series = cml_series(observatory)
    if cml_gauges or series:
        lines += _section("Client modify log")
        for gauge in cml_gauges:
            if isinstance(gauge, Gauge):
                lines.append("  %-12s %-24s now=%s peak=%s"
                             % (gauge.name, gauge.label_string,
                                _fmt(gauge.value), _fmt(gauge.max_value)))
        if series:
            lines.append("  length over time (records):")
            lines += _series_lines(series, "records")
        lines.append("")

    # Reintegration ---------------------------------------------------
    reint = metrics.with_prefix("reintegration.")
    if reint:
        lines += _counter_table(
            [inst for inst in reint if isinstance(inst, Counter)],
            "Trickle reintegration")
        lines.append("")

    # Validation ------------------------------------------------------
    validation = metrics.with_prefix("validation.")
    if validation:
        lines += _counter_table(validation, "Validation RPCs")
        lines.append("")

    # Faults ----------------------------------------------------------
    faults = metrics.with_prefix("faults.")
    if faults:
        lines += _counter_table(faults, "Fault injection")
        lines.append("")

    # Timeline mix ----------------------------------------------------
    counts = trace.counts()
    if counts:
        lines += _section("Event mix")
        width = max(len(kind) for kind in counts)
        for kind in sorted(counts):
            lines.append("  %-*s  %8d" % (width, kind, counts[kind]))
    return "\n".join(lines).rstrip() + "\n"
