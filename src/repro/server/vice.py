"""The Coda server: Vice RPC handlers over volumes and callbacks.

One :class:`CodaServer` owns a volume registry, a callback registry, a
fragment store, and an RPC2 endpoint.  Clients are identified by their
node names (the transport supplies them), so no separate registration
step is needed.  Callback breaks are delivered asynchronously by RPC
to the client's own endpoint; an unreachable client simply loses all
its callbacks, exactly as a real server discards promises it can no
longer keep.
"""

from repro.fs.namespace import VolumeRegistry
from repro.fs.objects import ObjectType, Vnode
from repro.fs.volume import Volume
from repro.rpc2.endpoint import Rpc2Endpoint
from repro.rpc2.errors import ConnectionDead
from repro.server.callbacks import CallbackRegistry
from repro.server.reintegration import Reintegrator
from repro.server.store import (
    PER_FETCH,
    PER_OBJECT_VALIDATE,
    PER_OPERATION,
    PER_RECORD,
    REINTEGRATION_FIXED,
    FragmentStore,
)
from repro.rpc2.packets import CODA_PORT


class SizedResult(dict):
    """An RPC result dict with an explicit wire size."""

    def __init__(self, data, wire_size):
        super().__init__(data)
        self.wire_size = wire_size


class CodaServer:
    """A file server exporting volumes to Venus clients."""

    def __init__(self, sim, network, node, host):
        self.sim = sim
        self.network = network
        self.node = node
        self.host = host
        self.registry = VolumeRegistry()
        self.callbacks = CallbackRegistry()
        self.fragments = FragmentStore()
        self.reintegrator = Reintegrator(self.registry, sim=sim)
        self.endpoint = Rpc2Endpoint(sim, network, node, CODA_PORT, host)
        self._client_conns = {}
        self._volid_counter = 100
        self.reintegrations = 0
        self.reintegration_conflicts = 0
        self.crashed = False
        self.crashes = 0
        self._register_handlers()

    # ------------------------------------------------------------------
    # Crash and recovery (repro.faults)

    def crash(self):
        """Simulate a server crash: volatile state vanishes, disk stays.

        The store — volumes, vnodes, volume version stamps, and the
        reintegrator's applied-record marks (Coda keeps store-ids in
        RVM) — survives.  Callback promises, partially assembled
        fragments, per-connection RPC state, and every running handler
        process are volatile and are lost, which is what forces clients
        back through rapid validation when the server returns.
        """
        self.crashed = True
        self.crashes += 1
        killed = self.endpoint.shutdown()
        self.callbacks = CallbackRegistry()
        self.fragments = FragmentStore()
        self._client_conns = {}
        return killed

    def restart(self):
        """Bring a crashed server back up with a fresh endpoint."""
        if not self.crashed:
            raise RuntimeError("server %s is not down" % self.node)
        next_conn_id = self.endpoint._next_conn_id
        self.endpoint = Rpc2Endpoint(self.sim, self.network, self.node,
                                     CODA_PORT, self.host,
                                     first_conn_id=next_conn_id)
        self.crashed = False
        self._register_handlers()
        return self.endpoint

    # ------------------------------------------------------------------
    # Volume administration

    def create_volume(self, name, mount_prefix):
        """Create and mount a new volume; returns it."""
        self._volid_counter += 1
        volume = Volume(self._volid_counter, name)
        self.registry.mount(mount_prefix, volume)
        return volume

    # ------------------------------------------------------------------
    # Callback breaking

    def _conn_to(self, client):
        conn = self._client_conns.get(client)
        if conn is None:
            conn = self.endpoint.connect(client)
            self._client_conns[client] = conn
        return conn

    def _break_callbacks(self, updater, fid):
        object_clients, volume_clients = \
            self.callbacks.breaks_for_update(updater, fid)
        notify = {}
        for client in object_clients:
            notify.setdefault(client, {"fids": [], "volumes": []})
            notify[client]["fids"].append(fid)
        for client in volume_clients:
            notify.setdefault(client, {"fids": [], "volumes": []})
            notify[client]["volumes"].append(fid.volume)
        # notify was populated from hash-ordered holder sets, so pick a
        # canonical delivery order before scheduling anything.
        for client in sorted(notify):
            self.sim.process(self._deliver_break(client, notify[client]),
                             name="break-%s" % client, owner=self.node)

    def _deliver_break(self, client, breaks):
        conn = self._conn_to(client)
        try:
            yield conn.call("BreakCallback", breaks, max_retries=2)
        except ConnectionDead:
            # The client is unreachable; it must revalidate on
            # reconnection anyway, so just forget all its callbacks.
            self.callbacks.drop_client(client)

    # ------------------------------------------------------------------
    # Handlers

    def _register_handlers(self):
        ep = self.endpoint
        ep.register("GetAttr", self._h_getattr)
        ep.register("ValidateAttrs", self._h_validate_attrs)
        ep.register("ValidateVolumes", self._h_validate_volumes)
        ep.register("GetVolumeStamps", self._h_get_volume_stamps)
        ep.register("Fetch", self._h_fetch)
        ep.register("Store", self._h_store)
        ep.register("MakeObject", self._h_make_object)
        ep.register("Remove", self._h_remove)
        ep.register("PutFragment", self._h_put_fragment)
        ep.register("Reintegrate", self._h_reintegrate)

    def _vnode(self, fid):
        try:
            volume = self.registry.by_id(fid.volume)
        except KeyError:
            return None, None
        return volume, volume.get(fid)

    def _h_getattr(self, ctx, args):
        yield self.sim.sleep(PER_FETCH)
        volume, vnode = self._vnode(args["fid"])
        if vnode is None:
            return {"error": "nofile"}
        self.callbacks.add_object(ctx.peer, vnode.fid)
        return SizedResult({"status": vnode.status(),
                            "volume_stamp": volume.stamp}, 100)

    def _h_validate_attrs(self, ctx, args):
        """Batched per-object validation (the pre-volume-callback path)."""
        results = {}
        reply_size = 8
        for fid, version in args["pairs"]:
            yield self.sim.sleep(PER_OBJECT_VALIDATE)
            _volume, vnode = self._vnode(fid)
            if vnode is not None and vnode.version == version:
                results[fid] = (True, None)
                self.callbacks.add_object(ctx.peer, fid)
                reply_size += 4
            elif vnode is not None:
                results[fid] = (False, vnode.status())
                self.callbacks.add_object(ctx.peer, fid)
                reply_size += 100
            else:
                results[fid] = (False, None)
                reply_size += 4
        return SizedResult({"results": results}, reply_size)

    def _h_validate_volumes(self, ctx, args):
        """Batched volume-stamp validation (section 4.2.1).

        Valid stamps acquire a volume callback as a side effect.
        """
        results = {}
        # Canonical processing order: the reply timing must not depend
        # on how the client happened to assemble its stamp dict.
        for volid, stamp in sorted(args["stamps"].items()):
            yield self.sim.sleep(PER_OBJECT_VALIDATE)
            try:
                volume = self.registry.by_id(volid)
            except KeyError:
                results[volid] = (False, None)
                continue
            if volume.stamp == stamp:
                self.callbacks.add_volume(ctx.peer, volid)
                results[volid] = (True, stamp)
            else:
                results[volid] = (False, volume.stamp)
        return SizedResult({"results": results},
                           8 + 8 * len(results))

    def _h_get_volume_stamps(self, ctx, args):
        results = {}
        for volid in args["volumes"]:
            yield self.sim.sleep(PER_OBJECT_VALIDATE)
            try:
                volume = self.registry.by_id(volid)
            except KeyError:
                continue
            self.callbacks.add_volume(ctx.peer, volid)
            results[volid] = volume.stamp
        return SizedResult({"stamps": results}, 8 + 8 * len(results))

    def _h_fetch(self, ctx, args):
        yield self.sim.sleep(PER_FETCH)
        volume, vnode = self._vnode(args["fid"])
        if vnode is None:
            return {"error": "nofile"}
        self.callbacks.add_object(ctx.peer, vnode.fid)
        result = SizedResult({"status": vnode.status(),
                              "volume_stamp": volume.stamp,
                              "content": vnode.content,
                              "children": dict(vnode.children or {})},
                             150)
        return result, vnode.length

    def _h_store(self, ctx, args):
        yield self.sim.sleep(PER_OPERATION)
        volume, vnode = self._vnode(args["fid"])
        if vnode is None:
            return {"error": "nofile"}
        base = args.get("base_version")
        if base is not None and vnode.version != base:
            return {"error": "conflict"}
        vnode.content = args["content"]
        volume.bump(vnode, self.sim.now)
        self._break_callbacks(ctx.peer, vnode.fid)
        self.callbacks.add_object(ctx.peer, vnode.fid)
        return {"version": vnode.version, "volume_stamp": volume.stamp}

    def _h_make_object(self, ctx, args):
        """Create a file or directory (connected mode)."""
        yield self.sim.sleep(PER_OPERATION)
        volume, parent = self._vnode(args["parent"])
        if parent is None or not parent.is_dir():
            return {"error": "nofile"}
        if parent.lookup(args["name"]) is not None:
            return {"error": "exists"}
        if volume.get(args["fid"]) is not None:
            return {"error": "exists"}   # fid already in use
        otype = ObjectType(args["otype"])
        vnode = Vnode(args["fid"], otype, mtime=self.sim.now,
                      content=args.get("content"))
        volume.add(vnode)
        parent.children[args["name"]] = vnode.fid
        volume.bump(parent, self.sim.now)
        volume.stamp += 1
        self._break_callbacks(ctx.peer, parent.fid)
        self.callbacks.add_object(ctx.peer, parent.fid)
        self.callbacks.add_object(ctx.peer, vnode.fid)
        return {"status": vnode.status(), "parent_version": parent.version,
                "volume_stamp": volume.stamp}

    def _h_remove(self, ctx, args):
        """Unlink a file or remove an empty directory."""
        yield self.sim.sleep(PER_OPERATION)
        volume, parent = self._vnode(args["parent"])
        if parent is None:
            return {"error": "nofile"}
        fid = parent.lookup(args["name"])
        if fid is None:
            return {"error": "nofile"}
        vnode = volume.get(fid)
        if vnode is not None:
            if vnode.is_dir() and vnode.children:
                return {"error": "notempty"}
            volume.remove(fid)
        del parent.children[args["name"]]
        volume.bump(parent, self.sim.now)
        self._break_callbacks(ctx.peer, fid)
        self._break_callbacks(ctx.peer, parent.fid)
        self.callbacks.add_object(ctx.peer, parent.fid)
        return {"parent_version": parent.version,
                "volume_stamp": volume.stamp}

    # ------------------------------------------------------------------
    # Weak-connectivity machinery

    def _h_put_fragment(self, ctx, args):
        """Accept one fragment of a large file awaiting reintegration."""
        key = (ctx.peer, args["key"])
        received = self.fragments.put(key, args["index"],
                                      ctx.received_bytes,
                                      args["total_size"])
        return {"received": received}

    def _h_reintegrate(self, ctx, args):
        """Atomically replay a chunk of a client's CML (section 4.3.3).

        Replay is idempotent: records the server already applied for
        this client (identified by their CML sequence numbers, the
        moral equivalent of Coda store-ids kept in RVM) are filtered
        out and acknowledged from the stored marks rather than applied
        twice.  A client that crashed after the server committed a
        chunk but before the reply arrived can therefore safely re-ship
        it after recovery.
        """
        records = args["records"]
        preshipped = set(args.get("preshipped", ()))
        self.reintegrations += 1
        fresh = [r for r in records
                 if not self.reintegrator.is_applied(ctx.peer, r.seqno)]
        duplicates = [r for r in records
                      if self.reintegrator.is_applied(ctx.peer, r.seqno)]
        if duplicates:
            self.reintegrator.note_duplicates(ctx.peer, duplicates)
        # Fragmented stores must be fully present before we even try
        # (already-applied records consumed their fragments last time).
        missing = []
        for record in fresh:
            if record.seqno in preshipped:
                key = (ctx.peer, record.seqno)
                if not self.fragments.is_complete(key, record.content.size):
                    missing.append(record.seqno)
        if missing:
            return {"status": "missing_data", "missing": missing}
        yield self.sim.sleep(REINTEGRATION_FIXED + PER_RECORD * len(records))
        if fresh:
            # Versions the filtered duplicates already added count as
            # this client's own, not as foreign updates.
            prior_bumps = {}
            for record in duplicates:
                if record.op.value == "store":
                    prior_bumps[record.fid] = \
                        prior_bumps.get(record.fid, 0) + 1
            conflicts = self.reintegrator.validate(fresh,
                                                   own_bumps=prior_bumps)
            if conflicts:
                self.reintegration_conflicts += len(conflicts)
                return SizedResult(
                    {"status": "conflict", "conflicts": conflicts},
                    16 + 16 * len(conflicts))
            new_versions, stamps = self.reintegrator.apply(
                fresh, self.sim.now)
            self.reintegrator.mark_applied(ctx.peer, fresh, new_versions)
        else:
            new_versions, stamps = {}, {}
        # Acknowledge duplicates with the versions recorded when they
        # were first applied, and report current stamps for their
        # volumes, so the client's reply handling is oblivious to the
        # replay.
        for record in duplicates:
            stored = self.reintegrator.applied_versions(ctx.peer,
                                                        record.seqno)
            for fid, version in stored.items():
                new_versions.setdefault(fid, version)
            try:
                volume = self.registry.by_id(record.fid.volume)
            except KeyError:
                continue
            stamps.setdefault(volume.volid, volume.stamp)
        for record in fresh:
            if record.seqno in preshipped:
                self.fragments.consume((ctx.peer, record.seqno))
            self._break_callbacks(ctx.peer, record.fid)
            if record.parent is not None:
                self._break_callbacks(ctx.peer, record.parent)
        return SizedResult({"status": "ok",
                            "new_versions": new_versions,
                            "volume_stamps": stamps},
                           16 + 12 * len(new_versions))
