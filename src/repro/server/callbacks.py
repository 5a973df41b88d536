"""Callback registry at object and volume granularity.

A callback is a server's promise to notify a client before its cached
copy of an object goes stale.  The paper adds *volume callbacks*: when
a client obtains or validates a volume version stamp, the server
promises to notify it when *any* object in the volume changes.  Volume
callbacks trade precision of invalidation for speed of validation —
"an excellent performance tradeoff for typical Unix workloads."
"""

from collections import defaultdict


class CallbackRegistry:
    """Tracks which clients hold callbacks on which objects/volumes."""

    def __init__(self):
        self._object_holders = defaultdict(set)   # fid -> {client}
        self._volume_holders = defaultdict(set)   # volid -> {client}
        self.object_breaks = 0
        self.volume_breaks = 0

    # -- establishment -------------------------------------------------

    def add_object(self, client, fid):
        self._object_holders[fid].add(client)

    def add_volume(self, client, volid):
        self._volume_holders[volid].add(client)

    # -- queries -------------------------------------------------------

    def breaks_for_update(self, updater, fid):
        """Clients to notify when ``updater`` changes ``fid``.

        All other holders lose their object callback on ``fid`` and
        their volume callback on its volume.  The updater keeps both:
        connected-mode update replies carry the new object version and
        volume stamp, so its cached state remains current.
        """
        object_clients = self._object_holders.pop(fid, set())
        volume_clients = set(self._volume_holders.get(fid.volume, ()))
        if updater in object_clients:
            object_clients.discard(updater)
            self._object_holders[fid].add(updater)
        volume_clients.discard(updater)
        self._volume_holders[fid.volume] -= volume_clients
        self.object_breaks += len(object_clients)
        self.volume_breaks += len(volume_clients)
        return object_clients, volume_clients

    def drop_client(self, client):
        """Forget every promise to ``client`` (it is unreachable)."""
        for holders in self._object_holders.values():
            holders.discard(client)
        for holders in self._volume_holders.values():
            holders.discard(client)

    def total_promises(self):
        """Outstanding promises across all objects and volumes.

        The invariant checker uses this to assert the registry is
        volatile: a freshly restarted server must report zero.
        """
        return (sum(len(holders) for holders in
                    self._object_holders.values())
                + sum(len(holders) for holders in
                      self._volume_holders.values()))
