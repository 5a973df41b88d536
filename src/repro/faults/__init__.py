"""repro.faults: deterministic fault injection and crash/recovery.

Declarative :class:`FaultPlan` timelines (link outages, degradations,
loss bursts, server and client crashes/restarts) executed by a
:class:`FaultInjector` against a testbed.  Client crashes snapshot the
RVM-persistent slice of Venus (:func:`snapshot_venus`) so a restart
replays the log and resumes trickle from the reintegration barrier;
server crashes lose volatile state (callbacks, fragments) while the
store and the idempotent-replay marks survive.  An empty plan injects
nothing and perturbs nothing.
"""

from repro.faults.injector import FaultInjector
from repro.faults.persistence import (
    VenusSnapshot,
    fault_fingerprint,
    namespace_digest,
    restore_venus,
    snapshot_venus,
)
from repro.faults.plan import (
    ACTION_TYPES,
    ClientCrash,
    ClientRestart,
    FaultPlan,
    LinkDegrade,
    LinkOutage,
    LossBurst,
    ServerCrash,
    ServerRestart,
)

__all__ = [
    "ACTION_TYPES",
    "ClientCrash",
    "ClientRestart",
    "FaultInjector",
    "FaultPlan",
    "LinkDegrade",
    "LinkOutage",
    "LossBurst",
    "ServerCrash",
    "ServerRestart",
    "VenusSnapshot",
    "fault_fingerprint",
    "namespace_digest",
    "restore_venus",
    "snapshot_venus",
]
