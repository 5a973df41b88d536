"""Structured event tracing: typed, timestamped records of what happened.

A :class:`TraceRecorder` accumulates :class:`TraceEvent` objects — one
per interesting occurrence anywhere in the stack (an RPC leaving, a
link dropping, a CML append, a reintegration chunk committing).  The
taxonomy is closed: recording an unknown kind raises immediately, so a
typo in an instrumentation site fails a test instead of silently
producing an empty timeline.

A simulator without an observatory records nothing: its ``sim.obs``
is the null observatory, and every instrumentation site checks
``obs.enabled`` before it reaches a recorder.
"""

from dataclasses import dataclass, field

#: The closed event taxonomy.  Kinds and their fields:
#:
#: * ``rpc_send`` / ``rpc_reply`` / ``retransmit`` — client-side RPC
#:   lifecycle (``node``, ``peer``, ``proc``, ``seq``; replies add
#:   ``latency``; retransmits add ``layer`` = rpc2|sftp).
#: * ``link_up`` / ``link_down`` — duplex link state flips (``link``).
#: * ``packet_drop`` — a datagram lost to outage or random loss
#:   (``link``, ``reason`` = down|loss|down_in_flight).
#: * ``cache_hit`` / ``cache_miss`` — Venus object references
#:   (``node``, ``path``; misses add ``reason`` =
#:   fetch|status|disconnected|patience|cost).
#: * ``cml_append`` — a record entered the client modify log
#:   (``node``, ``op``, ``records``, ``bytes`` after the append).
#: * ``reintegration_chunk`` — a trickle chunk concluded (``node``,
#:   ``status`` = committed|conflict|missing_data|aborted,
#:   ``records``, ``bytes``).
#: * ``fragment`` — one fragment of an oversized store shipped
#:   (``node``, ``seqno``, ``index``, ``bytes``).
#: * ``validation_rpc`` — a validation RPC issued (``scope`` =
#:   volume|object, ``objects`` = stamps/objects covered).
#: * ``reintegration_validate`` / ``reintegration_apply`` — the
#:   server-side transactional replay (``records``, ``conflicts`` /
#:   ``volumes``).
#: * ``state_transition`` — Venus moved between Figure 2 states
#:   (``node``, ``frm``, ``to``).
#: * ``fault_injected`` — the fault injector executed one plan action
#:   (``action`` = link_outage|server_crash|..., plus action fields).
#: * ``node_crash`` / ``node_restart`` — a client or server process
#:   died or came back (``node``, ``role`` = client|server; restarts
#:   add recovery detail such as ``cml_records`` replayed).
#: * ``reintegration_duplicate`` — the server skipped re-shipped CML
#:   records it had already applied (``client``, ``seqnos``).
#: * ``checkpoint_write`` / ``checkpoint_restore`` — repro.ckpt froze
#:   or rebuilt state (``scope`` = shard|client; shard-scope events add
#:   ``day`` and client counts, client-scope swap events add ``node``
#:   and the CML length travelling with the snapshot).
EVENT_KINDS = frozenset({
    "rpc_send",
    "rpc_reply",
    "retransmit",
    "link_up",
    "link_down",
    "packet_drop",
    "cache_hit",
    "cache_miss",
    "cml_append",
    "reintegration_chunk",
    "fragment",
    "validation_rpc",
    "reintegration_validate",
    "reintegration_apply",
    "state_transition",
    "fault_injected",
    "node_crash",
    "node_restart",
    "reintegration_duplicate",
    "checkpoint_write",
    "checkpoint_restore",
})


@dataclass
class TraceEvent:
    """One timestamped occurrence."""

    time: float
    kind: str
    fields: dict = field(default_factory=dict)

    def to_row(self):
        """Flatten into an export row (time/kind first, then fields).

        A field that would shadow the ``time``/``kind`` columns is
        exported under a ``field_`` prefix so the event identity always
        survives the round trip.
        """
        row = {"time": self.time, "kind": self.kind}
        for key, value in self.fields.items():
            row["field_" + key if key in ("time", "kind") else key] = value
        return row

    def __repr__(self):
        extras = " ".join("%s=%r" % kv for kv in self.fields.items())
        return "<%s @%.3f %s>" % (self.kind, self.time, extras)


class TraceRecorder:
    """Accumulates typed events in arrival (= simulation) order."""

    enabled = True

    def __init__(self):
        self.events = []

    def record(self, kind, time, /, **fields):
        if kind not in EVENT_KINDS:
            raise ValueError("unknown event kind %r (taxonomy: %s)"
                             % (kind, ", ".join(sorted(EVENT_KINDS))))
        self.events.append(TraceEvent(time=time, kind=kind, fields=fields))

    def counts(self):
        """``{kind: occurrences}`` over everything recorded."""
        out = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out
