"""Attribute a run to layers: the packages under ``src/repro``.

Two instruments live here, both read from outside the program:

* :func:`fold_profile` folds cProfile's per-function self time and
  call counts by owning package;
* :func:`observed_counters` reduces what a ``repro.obs.Observatory``
  counted (metric rows and trace-event kinds) to the per-layer count
  metrics.
"""

import os
import sysconfig

#: Every package (and top-level module) under ``src/repro`` and the
#: layer it is charged to.  The self-test fails when a package appears
#: that this table does not name.  ``analysis``, ``perf`` and the CLI
#: are tooling around the simulator and share one layer.
LAYER_OF_PACKAGE = {
    "sim": "sim", "net": "net", "rpc2": "rpc2", "venus": "venus",
    "core": "core", "server": "server", "fs": "fs", "trace": "trace",
    "obs": "obs", "ckpt": "ckpt", "fleetd": "fleetd", "faults": "faults",
    "spec": "spec", "bench": "bench",
    "analysis": "tools", "perf": "tools", "cli": "tools",
    "__main__": "tools", "__init__": "tools",
}

#: Frames outside ``src/repro``: C builtins and the standard library.
PY_LAYERS = ("py.builtin", "py.stdlib")

LAYERS = tuple(dict.fromkeys(LAYER_OF_PACKAGE.values())) + PY_LAYERS

_STDLIB = os.path.realpath(sysconfig.get_paths()["stdlib"]) + os.sep


def layer_of(filename, repro_root):
    """The layer a profiled frame's file belongs to, or ``"other"``.

    ``repro_root`` is the real path of the ``repro`` package directory
    with a trailing separator.  ``other`` collects what is neither the
    program nor the interpreter: the benchmark's own frames.
    """
    if filename == "~":
        return "py.builtin"
    if filename.startswith("<frozen"):
        return "py.stdlib"
    path = os.path.realpath(filename)
    if path.startswith(repro_root):
        package = path[len(repro_root):].split(os.sep)[0]
        if package.endswith(".py"):
            package = package[:-3]
        return LAYER_OF_PACKAGE.get(package, "other")
    if path.startswith(_STDLIB):
        return "py.stdlib"
    return "other"


def _named_builtin(filename, function):
    """``pickle``/``json``/``sha256`` for the frames split out by name."""
    if filename == "~":
        if "_pickle" in function:
            return "pickle"
        if "_json" in function or "json" in function.lower():
            return "json"
        if "_hashlib" in function or "sha256" in function:
            return "sha256"
        return None
    path = os.path.realpath(filename)
    if path.startswith(os.path.join(_STDLIB, "json") + os.sep):
        return "json"
    if path == os.path.join(_STDLIB, "pickle.py"):
        return "pickle"
    return None


def fold_profile(stats, repro_root):
    """Fold ``pstats.Stats(...).stats`` by layer.

    Returns ``{"layers": {layer: {"self_s", "calls"}}, "named":
    {"pickle"|"json"|"sha256": seconds}, "total_s", "other_s"}``.
    Named frames stay inside their layer's total as well, so the layer
    shares still sum to one.  Generated code (``<string>``: the
    ``__hash__``/``__eq__``/``__init__`` that ``dataclasses`` writes)
    has no file to fold by and is charged to the layers that call it.
    """
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    named = {"pickle": 0.0, "json": 0.0, "sha256": 0.0}
    total = other = 0.0

    def charge(filename, seconds, calls):
        layer = layer_of(filename, repro_root)
        if layer == "other":
            return seconds
        layers[layer]["self_s"] += seconds
        layers[layer]["calls"] += calls
        return 0.0

    for (filename, _line, function), (_cc, ncalls, tottime, _cum, callers) \
            in stats.items():
        total += tottime
        if filename == "<string>" and callers:
            for caller, (_cc, calls, seconds, _cum) in callers.items():
                other += charge(caller[0], seconds, calls)
        else:
            other += charge(filename, tottime, ncalls)
        name = _named_builtin(filename, function)
        if name is not None:
            named[name] += tottime
    return {"layers": layers, "named": named, "total_s": total,
            "other_s": other}


def _share(part, whole):
    return part / whole if whole else 0.0


def observed_counters(observed):
    """Per-layer counts from one counted run's observation.

    ``observed`` is ``{"rows": metric export rows, "kinds": {event
    kind: count}, "export_bytes": int}``.  Counters are summed over
    every label set (and every observatory: one per simulator); the
    ``pool.*`` gauges hold each simulator's final pool statistics and
    are summed the same way.
    """
    totals, rpcs = {}, 0
    for row in observed["rows"]:
        name = row["metric"]
        if row["type"] == "counter" or name.startswith("pool."):
            totals[name] = totals.get(name, 0) + (row["value"] or 0)
        elif name == "rpc.latency_seconds":
            rpcs += row["count"]
    kinds = observed["kinds"]
    get = totals.get
    reuses = sum(get("pool.%s_reuses" % kind, 0)
                 for kind in ("event", "timeout", "datagram"))
    allocs = sum(get("pool.%s_allocs" % kind, 0)
                 for kind in ("event", "timeout", "datagram"))
    refs = get("cache.hits", 0) + get("cache.misses", 0)
    return {
        "sim.events": get("sim.events_dispatched", 0),
        "sim.pool_reuse_share": _share(reuses, reuses + allocs),
        "net.packets_sent": get("link.packets_sent", 0),
        "net.bytes_sent": get("link.bytes_sent", 0),
        "net.drop_share": _share(get("link.packets_dropped", 0),
                                 get("link.packets_sent", 0)),
        "rpc2.rpcs": rpcs,
        "rpc2.packets_out": get("rpc.packets_out", 0),
        "rpc2.retransmit_share": _share(
            get("rpc.retransmits", 0) + get("sftp.retransmits", 0),
            get("rpc.packets_out", 0)),
        "venus.cache_refs": refs,
        "venus.cache_hit_share": _share(get("cache.hits", 0), refs),
        "venus.cml_records": kinds.get("cml_append", 0),
        "venus.transitions": get("venus.transitions", 0),
        "core.validation_rpcs": get("validation.rpcs", 0),
        "core.validation_volumes": get("validation.volumes", 0),
        "core.trickle_chunks": get("reintegration.chunks", 0),
        "core.trickle_bytes": get("reintegration.bytes", 0),
        "server.reintegration_records": get("reintegration.records", 0),
        "server.reintegration_duplicates": get("reintegration.duplicates",
                                               0),
        "obs.trace_events": sum(kinds.values()),
        "obs.metric_rows": len(observed["rows"]),
        "obs.export_bytes": observed["export_bytes"],
        "ckpt.swap_in": get("ckpt.swap_in", 0),
        "ckpt.swap_out": get("ckpt.swap_out", 0),
    }
