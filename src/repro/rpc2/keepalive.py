"""Shared liveness tracking.

The original Coda layering generated three independent keepalive
streams (RPC2, SFTP, and Venus's own probes).  The paper's fix is to
share one pool of liveness information across all layers.  A
:class:`LivenessRegistry` is exactly that pool: every arriving packet
refreshes it, so an active SFTP transfer keeps the RPC2 connection and
Venus equally convinced the peer is alive without extra traffic.
"""


class LivenessRegistry:
    """Per-endpoint registry of peer liveness, shared by all layers."""

    def __init__(self, sim):
        self.sim = sim
        self._last_heard = {}

    def heard_from(self, name):
        """Record that any packet (RPC, SFTP, ping) arrived from ``name``.

        Once per packet received: one dict store."""
        self._last_heard[name] = self.sim.now

    def silent_for(self, name):
        """Seconds since ``name`` was last heard from (inf if never)."""
        last_heard = self._last_heard.get(name)
        if last_heard is None:
            return float("inf")
        return self.sim.now - last_heard
