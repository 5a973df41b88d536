"""Shared liveness tracking.

The original Coda layering generated three independent keepalive
streams (RPC2, SFTP, and Venus's own probes).  The paper's fix is to
share one pool of liveness information across all layers.  A
:class:`LivenessRegistry` is exactly that pool: every arriving packet
refreshes it, so an active SFTP transfer keeps the RPC2 connection and
Venus equally convinced the peer is alive without extra traffic.
"""


class PeerLiveness:
    """What one endpoint knows about one peer."""

    def __init__(self):
        self.last_heard = None
        self.reachable = None  # None = never contacted


class LivenessRegistry:
    """Per-endpoint registry of peer liveness, shared by all layers."""

    def __init__(self, sim):
        self.sim = sim
        self._peers = {}

    def peer(self, name):
        info = self._peers.get(name)
        if info is None:
            info = PeerLiveness()
            self._peers[name] = info
        return info

    def heard_from(self, name):
        """Record that any packet (RPC, SFTP, ping) arrived from ``name``.

        Once per packet received: the peer is one dict lookup."""
        info = self._peers.get(name) or self.peer(name)
        info.last_heard = self.sim.now
        info.reachable = True

    def mark_unreachable(self, name):
        self.peer(name).reachable = False

    def is_reachable(self, name):
        return self.peer(name).reachable is True

    def silent_for(self, name):
        """Seconds since ``name`` was last heard from (inf if never)."""
        info = self._peers.get(name)
        if info is None or info.last_heard is None:
            return float("inf")
        return self.sim.now - info.last_heard
