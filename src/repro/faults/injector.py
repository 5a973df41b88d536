"""Deterministic execution of fault plans against a testbed.

The :class:`FaultInjector` expands a :class:`~repro.faults.plan.FaultPlan`
into a timeline of steps (windowed actions contribute an apply step
and a revert step) and walks it in a single simulation process.  Each
step runs at exactly its planned instant and the injector draws no
randomness, so the same plan always produces the same injected
schedule.

The zero-perturbation guarantee: an injector for an *empty* plan
spawns nothing and touches nothing, so a run with it is
schedule-identical to a run without it (the fault analogue of the
observability layer's null-observer guarantee).
"""

from repro.faults.persistence import restore_venus, snapshot_venus
from repro.faults.plan import (
    ClientCrash,
    ClientRestart,
    LinkDegrade,
    LinkOutage,
    LossBurst,
    ServerCrash,
    ServerRestart,
)


class FaultInjector:
    """Executes one fault plan against one testbed."""

    def __init__(self, testbed, plan):
        self.testbed = testbed
        self.sim = testbed.sim
        self.plan = plan
        #: [(time, description)] of every step actually executed.
        self.log = []
        #: The last pre-crash client snapshot (for restart).
        self.client_snapshot = None
        self._proc = None
        self._reverts = {}          # step seq -> saved state for revert

    # ------------------------------------------------------------------

    def start(self):
        """Spawn the timeline process.  No-op for an empty plan."""
        if self.plan.empty:
            return None
        steps = self._expand()
        self._proc = self.sim.process(self._run(steps),
                                      name="fault-injector")
        return self._proc

    def _expand(self):
        """Plan -> sorted [(time, seq, label, fn)] step list; a windowed
        action's revert lands its duration after it."""
        steps = []
        for seq, action in enumerate(self.plan):
            when = action.at
            apply_fn, revert_fn = self._steps_for(action, seq)
            steps.append((when, seq, "%s" % action.kind, apply_fn))
            if revert_fn is not None:
                steps.append((when + action.duration, seq,
                              "%s:revert" % action.kind, revert_fn))
        steps.sort(key=lambda s: (s[0], s[1]))
        return steps

    def _run(self, steps):
        for when, _seq, label, fn in steps:
            delay = when - self.sim.now
            if delay > 0:
                yield self.sim.sleep(delay)
            fn()
            self.log.append((self.sim.now, label))

    def _observe(self, action, **fields):
        obs = self.sim.obs
        if obs.enabled:
            obs.event("fault_injected", action=action, **fields)
            obs.metrics.counter("faults.injected", action=action).inc()

    def _steps_for(self, action, seq):
        """(apply, revert-or-None) closures for one action."""
        if isinstance(action, LinkOutage):
            return (lambda: self._apply_outage(action),
                    lambda: self._revert_outage(action))
        if isinstance(action, LinkDegrade):
            return (lambda: self._apply_degrade(action, seq),
                    lambda: self._revert_degrade(action, seq))
        if isinstance(action, LossBurst):
            return (lambda: self._apply_loss(action, seq),
                    lambda: self._revert_loss(action, seq))
        if isinstance(action, ServerCrash):
            return (lambda: self._server_crash(action), None)
        if isinstance(action, ServerRestart):
            return (lambda: self._server_restart(action), None)
        if isinstance(action, ClientCrash):
            return (lambda: self._client_crash(action), None)
        if isinstance(action, ClientRestart):
            return (lambda: self._client_restart(action), None)
        raise TypeError("unhandled fault action %r" % (action,))

    # -- link faults -----------------------------------------------------

    def _apply_outage(self, action):
        self.testbed.link.set_up(False)
        self._observe(action.kind, duration=action.duration)

    def _revert_outage(self, action):
        self.testbed.link.set_up(True)

    def _apply_degrade(self, action, seq):
        link = self.testbed.link
        # Both directions share one bandwidth and one loss rate.
        self._reverts[seq] = (link.forward.bandwidth_bps,
                              link.forward.loss_rate)
        if action.bandwidth_bps is not None:
            link.set_bandwidth(action.bandwidth_bps)
        if action.loss_rate is not None:
            link.set_loss_rate(action.loss_rate)
        self._observe(action.kind, duration=action.duration,
                      bandwidth_bps=action.bandwidth_bps,
                      loss_rate=action.loss_rate)

    def _revert_degrade(self, action, seq):
        link = self.testbed.link
        bandwidth_bps, loss = self._reverts.pop(seq)
        link.set_bandwidth(bandwidth_bps)
        link.set_loss_rate(loss)

    def _apply_loss(self, action, seq):
        link = self.testbed.link
        self._reverts[seq] = link.forward.loss_rate
        link.set_loss_rate(action.loss_rate)
        self._observe(action.kind, duration=action.duration,
                      loss_rate=action.loss_rate)

    def _revert_loss(self, action, seq):
        self.testbed.link.set_loss_rate(self._reverts.pop(seq))

    # -- server faults ---------------------------------------------------

    def _server_crash(self, action):
        server = self.testbed.server
        killed = server.crash()
        self._observe(action.kind)
        obs = self.sim.obs
        if obs.enabled:
            obs.event("node_crash", node=server.node, role="server",
                      processes_killed=killed)

    def _server_restart(self, action):
        server = self.testbed.server
        server.restart()
        self._observe(action.kind)
        obs = self.sim.obs
        if obs.enabled:
            obs.event("node_restart", node=server.node, role="server")

    # -- client faults ---------------------------------------------------

    def _client_crash(self, action):
        venus = self.testbed.venus
        self.client_snapshot = snapshot_venus(venus)
        killed = venus.crash()
        self._observe(action.kind)
        obs = self.sim.obs
        if obs.enabled:
            obs.event("node_crash", node=venus.node, role="client",
                      processes_killed=killed,
                      cml_records=self.client_snapshot.cml_len)

    def _client_restart(self, action):
        if self.client_snapshot is None:
            raise RuntimeError("client restart with no snapshot "
                               "(no preceding crash)")
        snapshot = self.client_snapshot
        host = self.testbed.venus.endpoint.host
        venus = restore_venus(snapshot, self.sim, self.testbed.net, host)
        self.testbed.venus = venus
        self._observe(action.kind)
        obs = self.sim.obs
        if obs.enabled:
            obs.event("node_restart", node=venus.node, role="client",
                      cml_records=len(venus.cml))
