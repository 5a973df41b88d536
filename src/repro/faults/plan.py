"""Declarative fault plans: a typed timeline of scripted failures.

A :class:`FaultPlan` is a list of actions, each pinned to a simulation
time, describing what goes wrong during a run — link outages and
degradations, loss bursts, server and client crashes and restarts.
Plans are pure data: nothing happens until a
:class:`~repro.faults.injector.FaultInjector` executes one against a
testbed.  Keeping the vocabulary closed and declarative is what makes
fault runs reproducible — the same plan against the same seed yields
the same event schedule, and plans can be built from plain dicts
(e.g. parsed from a config file) via :meth:`FaultPlan.from_dicts`.
"""

from dataclasses import dataclass, fields
from typing import Optional


@dataclass(frozen=True)
class LinkOutage:
    """Both directions of the link go down, then come back."""

    kind = "link_outage"
    at: float
    duration: float


@dataclass(frozen=True)
class LinkDegrade:
    """Temporarily change the link's bandwidth and/or loss rate.

    Models roaming onto a worse network for a while — the paper's
    "masking" scenario where bandwidth drops an order of magnitude.
    Fields left None keep their current value.
    """

    kind = "link_degrade"
    at: float
    duration: float
    bandwidth_bps: Optional[float] = None
    loss_rate: Optional[float] = None


@dataclass(frozen=True)
class LossBurst:
    """A window of elevated random packet loss (e.g. radio fading)."""

    kind = "loss_burst"
    at: float
    duration: float
    loss_rate: float = 0.2


@dataclass(frozen=True)
class ServerCrash:
    """The server dies: volatile state lost, the store survives."""

    kind = "server_crash"
    at: float


@dataclass(frozen=True)
class ServerRestart:
    """A crashed server comes back up with empty volatile state."""

    kind = "server_restart"
    at: float


@dataclass(frozen=True)
class ClientCrash:
    """Venus dies; RVM-persistent state is snapshotted at this instant."""

    kind = "client_crash"
    at: float


@dataclass(frozen=True)
class ClientRestart:
    """A crashed Venus restarts from its persisted snapshot."""

    kind = "client_restart"
    at: float


#: kind-string -> action class, the closed vocabulary.
ACTION_TYPES = {
    cls.kind: cls
    for cls in (LinkOutage, LinkDegrade, LossBurst, ServerCrash,
                ServerRestart, ClientCrash, ClientRestart)
}

#: Actions that open a window and implicitly revert at ``at + duration``.
WINDOWED = (LinkOutage, LinkDegrade, LossBurst)


class FaultPlan:
    """An immutable, time-sorted sequence of fault actions."""

    def __init__(self, actions=()):
        actions = list(actions)
        for action in actions:
            self._check(action)
        self._check_pairing(actions)
        # Stable sort: simultaneous actions keep their authored order.
        self.actions = tuple(sorted(actions, key=lambda a: a.at))

    @staticmethod
    def _check(action):
        if type(action) not in ACTION_TYPES.values():
            raise TypeError("not a fault action: %r" % (action,))
        if action.at < 0:
            raise ValueError("%s scheduled before t=0" % action.kind)
        if isinstance(action, WINDOWED) and action.duration <= 0:
            raise ValueError("%s needs a positive duration" % action.kind)

    @staticmethod
    def _check_pairing(actions):
        """Restarts must follow a matching crash, and crashes must not
        stack: the injector has exactly one snapshot slot per node."""
        for crash_cls, restart_cls, who in (
                (ServerCrash, ServerRestart, "server"),
                (ClientCrash, ClientRestart, "client")):
            down = False
            for action in sorted(actions, key=lambda a: a.at):
                if isinstance(action, crash_cls):
                    if down:
                        raise ValueError(
                            "%s crashed twice without a restart" % who)
                    down = True
                elif isinstance(action, restart_cls):
                    if not down:
                        raise ValueError(
                            "%s restart without a preceding crash" % who)
                    down = False

    @property
    def empty(self):
        return not self.actions

    def __len__(self):
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    def __repr__(self):
        return "FaultPlan(%s)" % ", ".join(
            "%s@%g" % (a.kind, a.at) for a in self.actions)

    @classmethod
    def from_dicts(cls, rows):
        """Build a plan from ``[{"kind": ..., "at": ..., ...}, ...]``."""
        actions = []
        for row in rows:
            row = dict(row)
            kind = row.pop("kind", None)
            action_cls = ACTION_TYPES.get(kind)
            if action_cls is None:
                raise ValueError(
                    "unknown fault kind %r (have %s)"
                    % (kind, ", ".join(sorted(ACTION_TYPES))))
            known = {f.name for f in fields(action_cls)}
            unknown = set(row) - known
            if unknown:
                raise ValueError("%s does not take %s"
                                 % (kind, ", ".join(sorted(unknown))))
            actions.append(action_cls(**row))
        return cls(actions)
