"""Runtime invariant checking across component boundaries.

Single-component state is easy to assert locally; the bugs worth a
checker live *between* components: a CML sequence number reused after
a crash, a server vnode whose version moves backwards during replay, a
restored client resurrecting callback promises that died with its
previous incarnation, link byte accounting that quietly leaks.  The
:class:`InvariantChecker` attaches to a testbed through the existing
observability hook points — every recorded trace event doubles as a
check point, and the CML's ``on_change`` hook drives the seqno
invariant — so checking perturbs nothing the obs layer didn't already
touch (observation never schedules events or draws randomness).

Invariants enforced:

* **CML seqnos** are strictly increasing in log order, and a sequence
  number once observed for a node is never re-issued — including
  across crash/restore, where the restored log must carry only
  already-seen seqnos and new appends must continue above the
  pre-crash high water mark.
* **Store version monotonicity**: a server vnode's version never
  decreases, across reintegration replay, connected updates, and
  server crash/restart (the store is persistent).
* **Callback volatility**: callback promises die with the process.  A
  restarted client holds no object or volume callbacks until it
  revalidates; a restarted server's callback registry is empty.
* **Link byte conservation**: per direction,
  ``sent == delivered + lost + dropped_down + dropped + in_flight``.
"""

from dataclasses import dataclass


class InvariantViolation(AssertionError):
    """A cross-component invariant failed during a run."""


@dataclass
class Violation:
    """One recorded violation (collect mode)."""

    invariant: str
    time: float
    message: str

    def format(self):
        return "[%s @%.3f] %s" % (self.invariant, self.time, self.message)


class InvariantChecker:
    """Watches one testbed through its observatory.

    ``strict`` raises :class:`InvariantViolation` at the moment an
    invariant fails (the default: tests want the failing schedule
    point); ``strict=False`` collects into :attr:`violations` so a CLI
    run can report them all.

    Usage::

        observatory = Observatory()
        checker = InvariantChecker()
        run_spec(get("trickle"), observatory=observatory,
                 checker=checker)       # the compiler calls attach()
        checker.check_all()             # final sweep
    """

    def __init__(self, strict=True):
        self.strict = strict
        self.testbed = None
        self.violations = []
        self.checks = 0
        self._seen_seqnos = {}       # node -> set of seqnos ever seen
        self._versions = {}          # fid -> highest version seen

    # -- wiring ----------------------------------------------------------

    def attach(self, testbed):
        """Hook the testbed's observatory and CML; returns self."""
        observatory = testbed.obs
        if observatory is None or not observatory.enabled:
            raise ValueError(
                "invariant checking needs an installed Observatory "
                "(make_testbed(observatory=...))")
        self.testbed = testbed
        original_event = observatory.event

        def checked_event(kind, /, **fields):
            original_event(kind, **fields)
            self.on_event(kind, fields)

        observatory.event = checked_event
        self._hook_cml(testbed.venus)
        return self

    def _hook_cml(self, venus):
        previous = venus.cml.on_change

        def chained(log):
            if previous is not None:
                previous(log)
            self.check_cml(venus.node, log)

        venus.cml.on_change = chained
        # Capture the seqnos already present (e.g. a restored log).
        self.check_cml(venus.node, venus.cml)

    # -- event dispatch --------------------------------------------------

    def on_event(self, kind, fields):
        """One check point: the obs layer just recorded ``kind``."""
        self.check_link_conservation()
        if kind in ("reintegration_apply", "reintegration_chunk",
                    "reintegration_validate", "validation_rpc",
                    "node_restart"):
            self.check_store_versions()
        if kind == "node_restart":
            if fields.get("role") == "client":
                # The injector swapped in the restored incarnation
                # before emitting the event; re-hook its fresh CML.
                self._hook_cml(self.testbed.venus)
                self.check_client_callbacks_cleared()
            elif fields.get("role") == "server":
                self.check_server_registry_empty()

    # -- the invariants --------------------------------------------------

    def check_cml(self, node, log):
        """Seqnos strictly increasing; none ever re-issued."""
        self.checks += 1
        seqnos = [record.seqno for record in log]
        for earlier, later in zip(seqnos, seqnos[1:]):
            if later <= earlier:
                self._violation(
                    "cml_seqno_order",
                    "CML of %s not strictly increasing: %d then %d"
                    % (node, earlier, later))
        seen = self._seen_seqnos.setdefault(node, set())
        high_water = max(seen) if seen else 0
        for seqno in seqnos:
            if seqno not in seen and seqno <= high_water:
                self._violation(
                    "cml_seqno_reuse",
                    "CML of %s issued seqno %d at or below the high "
                    "water mark %d (reuse across crash/restore?)"
                    % (node, seqno, high_water))
        seen.update(seqnos)

    def check_store_versions(self):
        """No server vnode's version ever decreases."""
        self.checks += 1
        server = self.testbed.server
        for volume in server.registry.volumes():
            for fid, vnode in volume.vnodes.items():
                before = self._versions.get(fid)
                if before is not None and vnode.version < before:
                    self._violation(
                        "store_version_monotonic",
                        "vnode %s version went backwards: %d -> %d"
                        % (fid, before, vnode.version))
                self._versions[fid] = max(before or 0, vnode.version)

    def check_client_callbacks_cleared(self):
        """A just-restarted client holds no callback promises."""
        self.checks += 1
        venus = self.testbed.venus
        for entry in venus.cache.entries():
            if entry.callback:
                self._violation(
                    "callback_volatility",
                    "restored client %s holds an object callback on %s;"
                    " promises must die with the crashed incarnation"
                    % (venus.node, entry.fid))
        for volid, info in venus.cache.volume_infos().items():
            if info.callback:
                self._violation(
                    "callback_volatility",
                    "restored client %s holds a volume callback on %s"
                    % (venus.node, volid))

    def check_server_registry_empty(self):
        """A just-restarted server has an empty callback registry."""
        self.checks += 1
        promises = self.testbed.server.callbacks.total_promises()
        if promises:
            self._violation(
                "callback_volatility",
                "restarted server still records %d callback promise(s);"
                " the registry is volatile state" % promises)

    def check_link_conservation(self):
        """sent == delivered + lost + dropped_down + in_flight."""
        self.checks += 1
        for direction in (self.testbed.link.forward,
                          self.testbed.link.backward):
            stats = direction.stats
            accounted = (stats.bytes_delivered + stats.bytes_lost
                         + stats.bytes_dropped_down
                         + direction.bytes_in_flight)
            if stats.bytes_sent != accounted:
                self._violation(
                    "link_byte_conservation",
                    "%s: sent %d != delivered %d + lost %d + dropped %d"
                    " + in-flight %d"
                    % (direction.label, stats.bytes_sent,
                       stats.bytes_delivered, stats.bytes_lost,
                       stats.bytes_dropped_down,
                       direction.bytes_in_flight))

    def check_all(self):
        """Final sweep over every stateful invariant; returns self."""
        self.check_link_conservation()
        self.check_store_versions()
        venus = self.testbed.venus
        self.check_cml(venus.node, venus.cml)
        return self

    # -- bookkeeping -----------------------------------------------------

    def _violation(self, invariant, message):
        now = self.testbed.sim.now if self.testbed is not None else 0.0
        violation = Violation(invariant=invariant, time=now,
                              message=message)
        self.violations.append(violation)
        if self.strict:
            raise InvariantViolation(violation.format())


def attach_client_checkers(checkers, facades, sample=4):
    """Attach one non-strict checker per sampled client facade.

    A checker per client wraps ``observatory.event`` once each, so the
    sample is bounded: the first ``sample - 1`` facades plus the last
    keep fleet-scale runs tractable while still watching both ends of
    the roster.  Each checker is appended to ``checkers``; returns the
    attached ones.  No-op when ``checkers`` is None.
    """
    if checkers is None or not facades:
        return []
    picked = (facades if len(facades) <= sample
              else facades[:sample - 1] + [facades[-1]])
    attached = []
    for facade in picked:
        checker = InvariantChecker(strict=False)
        checker.attach(facade)
        checkers.append(checker)
        attached.append(checker)
    return attached
