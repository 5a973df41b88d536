"""Venus: the client cache manager facade.

All application file access goes through this class.  Operations are
generators: call them with ``yield from`` inside a simulation process
(or use :meth:`Venus.run` to execute one as a process).

State-dependent behaviour (Figure 2):

* HOARDING (strong connectivity): reads fetch on miss; updates write
  through to the server synchronously.
* WRITE_DISCONNECTED (weak connectivity): reads are gated by the user
  patience model; updates are logged in the CML and trickle-
  reintegrated in the background.
* EMULATING (disconnected): reads are served from cache or miss;
  updates are logged.

Open-close session semantics (AFS/Coda): whole files are read and
written (:meth:`Venus.read_file`, :meth:`Venus.write_file`); individual
read/write calls never touch the network.
"""

import zlib
from dataclasses import dataclass
from itertools import count

from repro.core.adaptation import ConnectionStrength, ConnectivityMonitor
from repro.core.cost import FREE, CostAwarePolicy, CostLedger
from repro.core.patience import PatienceModel
from repro.core.trickle import TrickleReintegrator
from repro.core.validation import RapidValidator
from repro.fs.content import Content
from repro.fs.fid import Fid
from repro.fs.namespace import split_path
from repro.fs.objects import ObjectType
from repro.rpc2.endpoint import Rpc2Endpoint
from repro.rpc2.errors import ConnectionDead
from repro.rpc2.packets import CODA_PORT, STATUS_BLOCK
from repro.sim.events import Event
from repro.venus.advice import TimeoutUser
from repro.venus.cache import CacheEntry, CacheManager
from repro.venus.cml import ClientModifyLog, CmlOp, CmlRecord
from repro.venus.errors import CacheMissError, OfflineError
from repro.venus.hdb import HoardDatabase
from repro.venus.misshandler import MissLog, MissRecord
from repro.venus.repair import ConflictStore, Repairer
from repro.venus.states import VenusState, VenusStateMachine


@dataclass
class VenusConfig:
    """Tunables, defaulting to the paper's published values."""

    cache_capacity: int = 50_000 * 1024    # Figure 6's cache size
    aging_window: float = 600.0            # A, section 4.3.4
    chunk_seconds: float = 30.0            # C's time budget, section 4.3.5
    daemon_period: float = 10.0            # trickle daemon grid period
    hoard_walk_interval: float = 600.0     # "once every 10 minutes"
    strong_threshold_bps: float = 500_000.0
    initial_bps: float = 9600.0            # assumed before any estimate
    probe_interval: float = 60.0           # reconnection probing
    keepalive_interval: float = 60.0       # idle keepalive while connected
    bandwidth_probe_interval: float = 300.0  # re-estimate when traffic-idle
    bandwidth_probe_pad: int = 2048        # probe payload bytes
    local_op_cost: float = 0.0005          # client CPU per file operation
    patience_alpha: float = 2.0            # section 4.4.4
    patience_beta: float = 1.0
    patience_gamma: float = 0.01
    advice_timeout: float = 60.0           # Figure 6 screen timeout
    tariff: object = None                  # NetworkTariff; None = free
    # Ablation switches ------------------------------------------------
    log_optimizations: bool = True
    use_volume_callbacks: bool = True
    whole_chunk_mode: bool = False         # ship all eligible at once
    force_write_disconnected: bool = False  # Figure 12 methodology
    start_daemons: bool = True


@dataclass
class VenusStats:
    """Operation counters (beyond CML/trickle/validation stats)."""

    operations: int = 0
    fetches: int = 0
    fetch_bytes: int = 0
    stores_through: int = 0
    misses_transparent: int = 0
    misses_denied: int = 0
    misses_disconnected: int = 0
    hoard_walks: int = 0


class Venus:
    """The per-client cache manager."""

    def __init__(self, sim, network, node, server, host,
                 config=None, user=None, first_conn_id=1):
        self.sim = sim
        self.node = node
        self.crashed = False
        self.server_node = server
        self.config = config or VenusConfig()
        self.user = user or TimeoutUser(self.config.advice_timeout)
        self.endpoint = Rpc2Endpoint(sim, network, node, CODA_PORT, host,
                                     default_bps=self.config.initial_bps,
                                     first_conn_id=first_conn_id)
        self.endpoint.register("BreakCallback", self._h_break_callback)
        self.conn = self.endpoint.connect(server)
        self.cml = ClientModifyLog()
        self.cache = CacheManager(self.config.cache_capacity,
                                  logged_fids=self.cml.logged_fids)
        self.hdb = HoardDatabase()
        self.misses = MissLog()
        self.conflicts = ConflictStore()
        self.repairer = Repairer(self)
        self.state = VenusStateMachine(initial=VenusState.EMULATING)
        self.monitor = ConnectivityMonitor(self.config.strong_threshold_bps)
        self.patience = PatienceModel(self.config.patience_alpha,
                                      self.config.patience_beta,
                                      self.config.patience_gamma)
        self.cost_policy = CostAwarePolicy(self.config.tariff or FREE)
        self.ledger = CostLedger(self.config.tariff or FREE)
        self._connected_since = None
        self.state.on_transition(self._account_connection_time)
        self.state.on_transition(self._observe_transition)
        self.cml.on_change = self._observe_cml
        self.trickle = TrickleReintegrator(self)
        self.validator = RapidValidator(
            sim, self.cache, self.conn,
            use_volume_callbacks=self.config.use_volume_callbacks,
            cpu=self.endpoint.cpu)
        self.stats = VenusStats()
        self.foreground_ops = 0
        self.suppressed_fetches = set()
        self._mounts = {}            # tuple(prefix) -> (volid, root_fid)
        self._mount_memo = {}        # path -> _mount_for(path)
        self._writing = {}           # path -> None, or the Event waiters hold
        self._fid_counter = count(1)
        self._client_tag = zlib.crc32(node.encode("utf-8")) % 4096
        self._walker = None          # set lazily (import cycle)
        if self.config.start_daemons:
            self.trickle.start()
            sim.process(self._probe_daemon(), name="%s-probe" % node,
                        owner=node)
            sim.process(self._walk_daemon(), name="%s-walk" % node,
                        owner=node)

    # ------------------------------------------------------------------
    # Utilities

    @property
    def estimator(self):
        return self.endpoint.estimator(self.server_node)

    def current_bandwidth_bps(self):
        """Best current estimate of usable bandwidth."""
        bps = self.estimator.bandwidth.bits_per_sec
        return bps if bps is not None else self.config.initial_bps

    def effective_aging_window(self):
        """The aging window after cost adaptation (section 8).

        Expensive per-byte networks stretch A so optimizations cancel
        more records before they are paid for; per-minute tariffs
        prefer draining promptly so the call can end.
        """
        if self.cost_policy.prefers_fast_drain:
            return 0.0
        return self.cost_policy.effective_aging_window(
            self.config.aging_window)

    def _account_connection_time(self, old, new):
        now = self.sim.now
        if new is VenusState.EMULATING:
            if self._connected_since is not None:
                self.ledger.add_connected_time(now - self._connected_since)
                self._connected_since = None
        elif self._connected_since is None:
            self._connected_since = now

    def _observe_transition(self, old, new):
        obs = self.sim.obs
        if obs.enabled:
            obs.event("state_transition", node=self.node,
                      frm=old.value, to=new.value)
            obs.metrics.counter("venus.transitions", node=self.node,
                                to=new.value).inc()

    def _observe_cml(self, log):
        obs = self.sim.obs
        if obs.enabled:
            obs.metrics.gauge("cml.length", node=self.node).set(len(log))
            obs.metrics.gauge("cml.bytes",
                              node=self.node).set(log.size_bytes)

    def network_cost(self):
        """Money spent so far on this tariff (bytes + connect time)."""
        connected = 0.0
        if self._connected_since is not None:
            connected = self.sim.now - self._connected_since
        self.ledger.bytes_transferred = self.endpoint.bytes_out
        return self.ledger.tariff.cost_of(
            self.ledger.bytes_transferred,
            self.ledger.connected_seconds + connected)

    def _new_fid(self, volid):
        """Allocate a client-local fid (stands in for ViceAllocFid)."""
        n = next(self._fid_counter)
        base = 10_000_000 + self._client_tag * 1_000
        return Fid(volid, base + n, base + n)

    class _Foreground:
        """Counts in-flight foreground activity for trickle deferral."""

        def __init__(self, venus):
            self.venus = venus

        def __enter__(self):
            self.venus.foreground_ops += 1

        def __exit__(self, *exc):
            self.venus.foreground_ops -= 1

    def _foreground(self):
        return Venus._Foreground(self)

    # ------------------------------------------------------------------
    # Mount table

    def learn_mounts(self, registry):
        """Learn volume mount points from a server's registry.

        Stands in for Coda's mount-point traversal: real Venus
        discovers volumes by resolving mount-point objects; here we
        copy the (prefix -> volume root) map directly when the client
        is first configured.
        """
        for volume in registry.volumes():
            prefix = registry.mount_of(volume)
            self._mounts[prefix] = (volume.volid, volume.root_fid)
            self.cache.volume_info(volume.volid)
        self._mount_memo.clear()

    def restore_mounts(self, mounts):
        """Replace the mount table wholesale (crash recovery)."""
        self._mounts = dict(mounts)
        self._mount_memo.clear()

    def _mount_for(self, path):
        """``((volid, root_fid), parts_below_mount, mount_prefix)``.

        Memoised per path string (a client names the same few thousand
        paths over and over); the longest matching prefix wins.
        """
        found = self._mount_memo.get(path)
        if found is None:
            parts = tuple(split_path(path))
            for cut in range(len(parts), -1, -1):
                hit = self._mounts.get(parts[:cut])
                if hit is not None:
                    found = hit, parts[cut:], "/" + "/".join(parts[:cut])
                    break
            else:
                raise FileNotFoundError("no volume mounted for %r" % (path,))
            self._mount_memo[path] = found
        return found

    # ------------------------------------------------------------------
    # Resolution and fetching

    def _lookup(self, path, program=None, want_data=True):
        """Generator: resolve ``path`` to its cache entry, demanded with
        its data or, without ``want_data``, status only.  With
        ``want_data=None`` nothing is demanded and it returns
        :meth:`_resolve`'s triple.

        A fully cached path runs this one frame above ``HostCpu.use``:
        each walked component costs one :meth:`CacheManager.usable`
        call, and a generator is built only for a miss
        (:meth:`_demand_miss`).
        """
        (volid, root_fid), parts, prefix = self._mount_for(path)
        yield from self.endpoint.cpu.use(self.config.local_op_cost)
        cache, sim = self.cache, self.sim
        connected = self.state.connected
        fid, walked = root_fid, prefix
        for name in parts[:-1] + (None,):
            here = cache.usable(fid, connected, now=sim.now)
            if here is None:
                here = yield from self._demand_miss(fid, walked, program)
                connected = self.state.connected
            else:
                self.stats.operations += 1
                if sim.obs.enabled:
                    self._observe_reference(hit=True, path=walked)
            if name is None:
                break
            if here.children is None:
                raise NotADirectoryError(walked)
            fid = here.children.get(name)
            walked = walked + "/" + name
            if fid is None:
                raise FileNotFoundError(walked)
        if not parts:
            parent, name, fid = None, "", root_fid
        else:
            parent, name = here, parts[-1]
            if here.children is None:
                raise NotADirectoryError(walked)
            fid = here.children.get(name)
        if want_data is not None:
            # The final component is checked, not referenced: a hit
            # neither counts nor touches it.
            hit = cache.usable(fid, connected, want_data)
            if hit is not None:
                return hit
        entry = cache.get(fid)
        if fid is not None and entry is None:
            entry = yield from self._demand_miss(fid, path, program,
                                                 want_data=False)
        if want_data is None:
            return parent, name, entry
        if entry is None:
            raise FileNotFoundError(path)
        if cache.usable(entry.fid, self.state.connected, want_data) is None:
            entry = yield from self._demand_miss(entry.fid, path, program,
                                                 entry, want_data)
        return entry

    def _resolve(self, path, program=None):
        """Generator: walk ``path``; returns (parent_entry, name, entry).

        The final component may be absent (entry None).  Raises
        FileNotFoundError if an intermediate directory is missing.
        """
        return self._lookup(path, program, want_data=None)

    def _demand_miss(self, fid, path, program=None, entry=None,
                     want_data=True):
        """Generator: a counted reference the hit check could not serve.

        This is the miss-handling heart (section 4.4.1): a miss while
        hoarding fetches transparently; while emulating it fails;
        while write disconnected the estimated service time is
        compared with the patience threshold.
        """
        self.stats.operations += 1
        if entry is None:
            entry = self.cache.get(fid)
        if self.state.state is VenusState.EMULATING:
            if entry is not None:
                # Stale flags are unknowable offline; trust the cache.
                self.cache.touch(entry, self.sim.now)
                self._observe_reference(hit=True, path=path)
                return entry
            self.stats.misses_disconnected += 1
            miss = MissRecord(path=path, time=self.sim.now, program=program,
                              reason="disconnected")
            self.misses.record(miss)
            self._observe_reference(hit=False, path=path,
                                    reason="disconnected")
            raise CacheMissError(path)

        if not want_data:
            # Status-only demand: attributes are ~100 bytes, cheap at
            # any bandwidth (section 4.4.1) — no patience gate.
            self._observe_reference(hit=False, path=path, reason="status")
            entry = yield from self._fetch_status(fid, path)
            return entry
        if self.state.state is VenusState.WRITE_DISCONNECTED:
            yield from self._patience_gate(fid, path, program, entry)
        self._observe_reference(hit=False, path=path, reason="fetch")
        with self._foreground():
            entry = yield from self._fetch_object(fid, path)
        return entry

    def _observe_reference(self, hit, path, reason=None):
        """Count one cache reference in the observability layer."""
        obs = self.sim.obs
        if not obs.enabled:
            return
        if hit:
            obs.metrics.counter("cache.hits", node=self.node).inc()
            obs.event("cache_hit", node=self.node, path=path)
        else:
            obs.metrics.counter("cache.misses", node=self.node,
                                reason=reason).inc()
            obs.event("cache_miss", node=self.node, path=path,
                      reason=reason)

    def _fetch_status(self, fid, path):
        """Generator: refresh an object's status block from the server."""
        with self._foreground():
            result = yield from self._call_or_disconnect(
                "GetAttr", {"fid": fid}, args_size=32)
        if result is None:
            raise CacheMissError(path)
        if "error" in result.result:
            entry = self.cache.get(fid)
            if entry is not None and not entry.dirty:
                self.cache.remove(fid)
            raise FileNotFoundError(path)
        status = result.result["status"]
        entry = self.cache.get(fid)
        if entry is None:
            entry = CacheEntry(fid, status.otype, path=path)
            self.cache.add(entry, self.sim.now)
        if entry.version != status.version:
            # Stale data, fresh status: drop the payload.
            entry.content = None
            entry.children = None
        entry.apply_status(status)
        entry.callback = True
        self.cache.touch(entry, self.sim.now)
        return entry

    def _patience_gate(self, fid, path, program, entry):
        """Generator: raise CacheMissError unless the fetch is tolerable."""
        size = None
        if entry is not None and entry.version is not None:
            size = entry.length
        else:
            # Status is cheap ("only about 100 bytes long"), fetch it.
            with self._foreground():
                result = yield from self._call_or_disconnect(
                    "GetAttr", {"fid": fid}, args_size=STATUS_BLOCK)
            if result is None:
                raise CacheMissError(path)
            if "error" in result.result:
                raise FileNotFoundError(path)
            size = result.result["status"].length
        priority = self.hdb.priority_for(path)
        if entry is not None:
            priority = max(priority, entry.hoard_priority)
        estimate = self.estimator.expected_transfer_time(
            size, default_bps=self.config.initial_bps)
        reason = None
        if not self.patience.approves(priority, estimate):
            reason = "patience"
        elif not self.cost_policy.approves_fetch(priority, size):
            # Affordable in time but not in money (section 8).
            reason = "cost"
        if reason is None:
            self.stats.misses_transparent += 1
            return
        self.stats.misses_denied += 1
        miss = MissRecord(path=path, time=self.sim.now, program=program,
                          size_bytes=size, estimated_seconds=estimate,
                          priority=priority, reason=reason)
        self.misses.record(miss)
        self._observe_reference(hit=False, path=path, reason=reason)
        raise CacheMissError(path, estimated_seconds=estimate)

    def _fetch_object(self, fid, path):
        """Generator: fetch status+data for ``fid`` into the cache."""
        result = yield from self._call_or_disconnect(
            "Fetch", {"fid": fid}, args_size=32)
        if result is None:
            raise CacheMissError(path)
        if "error" in result.result:
            stale = self.cache.remove(fid)
            if stale is not None and stale.dirty:
                self.cache.add(stale, self.sim.now)  # keep dirty state
            raise FileNotFoundError(path)
        payload = result.result
        status = payload["status"]
        entry = self.cache.get(fid)
        if entry is None:
            entry = CacheEntry(fid, status.otype, path=path)
            self.cache.ensure_space(ENTRY_SPACE_GUESS + status.length)
            self.cache.add(entry, self.sim.now)
        entry.path = entry.path or path
        entry.apply_status(status)
        entry.callback = True
        if status.otype is ObjectType.DIRECTORY:
            entry.children = dict(payload["children"])
        else:
            entry.content = payload["content"]
        entry.local = False
        self.cache.touch(entry, self.sim.now)
        self.stats.fetches += 1
        self.stats.fetch_bytes += status.length
        return entry

    def _fetch_by_path(self, path):
        """Generator: ensure ``path``'s data is cached (data-walk fetch).

        Unlike the demand path this bypasses the patience gate — the
        fetch was already approved (or pre-approved) during the walk's
        interactive phase.
        """
        _parent, _name, entry = yield from self._resolve(path)
        if entry is None:
            raise FileNotFoundError(path)
        if self.cache.usable(entry.fid, True) is not None:
            return entry
        entry = yield from self._fetch_object(entry.fid, path)
        return entry

    def _call_or_disconnect(self, proc, args, args_size=64, send_size=0):
        """Generator: RPC that converts death into a state transition."""
        try:
            result = yield self.conn.call(proc, args, args_size=args_size,
                                          send_size=send_size)
            return result
        except ConnectionDead:
            self.handle_disconnection()
            return None

    # ------------------------------------------------------------------
    # Public read API

    def read_file(self, path, program=None):
        """Generator: whole-file read; returns the Content."""
        with self._foreground():
            entry = yield from self._lookup(path, program=program)
        if entry.otype is not ObjectType.FILE:
            raise IsADirectoryError(path)
        return entry.content

    def stat(self, path, program=None):
        """Generator: status of ``path`` from cache (fetching if needed)."""
        return self._lookup(path, program, want_data=False)

    def readdir(self, path, program=None):
        """Generator: sorted names in a directory."""
        entry = yield from self._lookup(path, program=program)
        if entry.children is None:
            raise NotADirectoryError(path)
        return sorted(entry.children)

    # ------------------------------------------------------------------
    # Public update API

    def write_file(self, path, data, program=None):
        """Generator: whole-file write (create or overwrite).  Writes of
        one path serialize: a later one waits for the earlier to end and
        resolves the path again; an uncontended one schedules nothing."""
        yield from self.endpoint.cpu.use(self.config.local_op_cost)
        writing = self._writing
        while path in writing:
            if writing[path] is None:
                writing[path] = Event(self.sim)
            yield writing[path]
        writing[path] = None
        try:
            entry = yield from self._prepare_write_target(path, program)
            yield from self._store(path, entry, Content.of(data))
        finally:
            waiters = writing.pop(path)
            if waiters is not None:
                waiters.succeed()
        return entry

    def _prepare_write_target(self, path, program):
        parent, name, entry = yield from self._resolve(path, program=program)
        if entry is not None:
            if entry.otype is not ObjectType.FILE:
                raise IsADirectoryError(path)
            return entry
        if parent is None:
            raise FileNotFoundError(path)
        entry = yield from self._create_object(
            parent, name, path, ObjectType.FILE)
        return entry

    def _create_object(self, parent, name, path, otype):
        """Generator: create a file or directory under ``parent``."""
        fid = self._new_fid(parent.fid.volume)
        if self.state.state is VenusState.HOARDING:
            result = yield from self._call_or_disconnect(
                "MakeObject", {"parent": parent.fid, "name": name,
                               "fid": fid, "otype": otype.value,
                               "content": Content.empty()
                               if otype is ObjectType.FILE else None})
            if result is not None:
                if "error" in result.result:
                    raise FileExistsError(path) \
                        if result.result["error"] == "exists" \
                        else FileNotFoundError(path)
                entry = self._install_new(fid, otype, path, local=False)
                entry.apply_status(result.result["status"])
                entry.callback = True
                parent.version = result.result["parent_version"]
                self._note_volume_stamp(fid.volume,
                                        result.result["volume_stamp"])
                parent.children[name] = fid
                return entry
            # fell through: we just disconnected — log it instead
        entry = self._install_new(fid, otype, path, local=True)
        parent.children[name] = fid
        op = CmlOp.CREATE if otype is ObjectType.FILE else CmlOp.MKDIR
        self._log(CmlRecord(op=op, fid=fid, parent=parent.fid, name=name,
                            content=Content.empty()
                            if otype is ObjectType.FILE else None))
        return entry

    def _install_new(self, fid, otype, path, local):
        entry = CacheEntry(fid, otype, path=path)
        entry.local = local
        entry.version = None if local else entry.version
        entry.mtime = self.sim.now
        if otype is ObjectType.FILE:
            entry.content = Content.empty()
        else:
            entry.children = {}
        self.cache.add(entry, self.sim.now)
        return entry

    def _store(self, path, entry, content):
        """Generator: store new contents of ``entry``."""
        if self.state.state is VenusState.HOARDING:
            with self._foreground():
                result = yield from self._call_or_disconnect(
                    "Store", {"fid": entry.fid, "content": content,
                              "base_version": entry.version},
                    send_size=content.size)
            if result is not None:
                if "error" in result.result:
                    raise OSError("store failed: %s" % result.result["error"])
                self.cache.ensure_space(content.size)
                entry.content = content
                entry.length = content.size
                entry.version = result.result["version"]
                entry.mtime = self.sim.now
                self._note_volume_stamp(entry.fid.volume,
                                        result.result["volume_stamp"])
                self.stats.stores_through += 1
                return
            # disconnected mid-store: fall through to logging
        self.cache.ensure_space(content.size)
        entry.content = content
        entry.length = content.size
        entry.mtime = self.sim.now
        self._log(CmlRecord(op=CmlOp.STORE, fid=entry.fid, content=content,
                            base_version=None if entry.local
                            else entry.version))

    def mkdir(self, path, program=None):
        """Generator: create a directory."""
        yield from self.endpoint.cpu.use(self.config.local_op_cost)
        parent, name, entry = yield from self._resolve(path, program=program)
        if entry is not None:
            raise FileExistsError(path)
        if parent is None:
            raise FileNotFoundError(path)
        return (yield from self._create_object(
            parent, name, path, ObjectType.DIRECTORY))

    def unlink(self, path, program=None):
        """Generator: remove a file."""
        yield from self.endpoint.cpu.use(self.config.local_op_cost)
        parent, name, entry = yield from self._resolve(path, program=program)
        if entry is None or parent is None:
            raise FileNotFoundError(path)
        if entry.otype is ObjectType.DIRECTORY:
            raise IsADirectoryError(path)
        yield from self._remove_common(parent, name, entry, CmlOp.UNLINK)

    def rmdir(self, path, program=None):
        """Generator: remove an empty directory."""
        yield from self.endpoint.cpu.use(self.config.local_op_cost)
        parent, name, entry = yield from self._resolve(path, program=program)
        if entry is None or parent is None:
            raise FileNotFoundError(path)
        if entry.otype is not ObjectType.DIRECTORY:
            raise NotADirectoryError(path)
        if entry.children:
            raise OSError("directory not empty: %s" % path)
        yield from self._remove_common(parent, name, entry, CmlOp.RMDIR)

    def _remove_common(self, parent, name, entry, op):
        if self.state.state is VenusState.HOARDING:
            result = yield from self._call_or_disconnect(
                "Remove", {"parent": parent.fid, "name": name})
            if result is not None:
                if "error" in result.result:
                    raise OSError("remove failed: %s"
                                  % result.result["error"])
                parent.version = result.result["parent_version"]
                self._note_volume_stamp(parent.fid.volume,
                                        result.result["volume_stamp"])
                del parent.children[name]
                self.cache.remove(entry.fid)
                return
        del parent.children[name]
        self._log(CmlRecord(op=op, fid=entry.fid, parent=parent.fid,
                            name=name,
                            base_version=None if entry.local
                            else entry.version))
        self.cache.remove(entry.fid)
        self._refresh_dirty()

    # ------------------------------------------------------------------
    # CML logging

    def _log(self, record):
        self.cml.append(record, self.sim.now,
                        optimize=self.config.log_optimizations)
        obs = self.sim.obs
        if obs.enabled:
            obs.event("cml_append", node=self.node, op=record.op.value,
                      records=len(self.cml), bytes=self.cml.size_bytes)
        self._refresh_dirty()

    def _refresh_dirty(self):
        """Bring ``entry.dirty`` up to date with the CML.

        Flags are recomputed only here (they are deliberately stale
        between refresh points), and only for the entries the CML and
        the cache know can have changed.
        """
        self.cache.refresh_dirty(self.cml.take_changed_fids())

    # ------------------------------------------------------------------
    # Hoarding API

    def hoard(self, path, priority, children=False):
        """Add ``path`` to the hoard database (takes effect at next walk)."""
        hoarded = self.hdb.add(path, priority, children=children)
        self._mount_for(path)   # FileNotFoundError: no volume mounted
        for entry in self.cache.iter_entries():
            if entry.path and hoarded.covers(entry.path):
                entry.hoard_priority = max(entry.hoard_priority, priority)

    def hoard_walk(self):
        """Generator: run a full hoard walk now (also called periodically)."""
        from repro.venus.walk import HoardWalker
        if self._walker is None:
            self._walker = HoardWalker(self)
        self.stats.hoard_walks += 1
        report = yield from self._walker.walk()
        return report

    def review_misses(self):
        """Generator: the Figure 5 interaction via the user model."""
        misses = self.misses.drain()
        if not misses:
            return []
        if self.user.delay_seconds:
            yield self.sim.sleep(self.user.delay_seconds)
        additions = self.user.review_misses(misses)
        for path, priority, children in additions:
            self.hoard(path, priority, children=children)
        return additions

    # ------------------------------------------------------------------
    # Synchronization / state management

    def sync(self):
        """Generator: user-forced full reintegration (section 4.3.2)."""
        if self.state.state is VenusState.EMULATING:
            raise OfflineError("cannot sync while disconnected")
        drained = yield from self.trickle.drain()
        return drained

    def crash(self):
        """Simulate a Venus process (or machine) crash.

        Everything volatile dies at this instant: the endpoint's socket
        closes and every simulation process owned by this node — the
        trickle/probe/walk daemons, in-flight RPCs, SFTP transfers —
        is killed.  Persistent state (the CML, cache metadata, volume
        stamps: the RVM analogue) is whatever a prior
        :func:`repro.faults.persistence.snapshot_venus` captured; this
        object itself must not be used again.  Returns the kill count.
        """
        self.crashed = True
        return self.endpoint.shutdown()

    def handle_disconnection(self):
        """React to transport death: enter the emulating state."""
        if self.state.state is VenusState.EMULATING:
            return
        self.state.transition(VenusState.EMULATING, self.sim.now)
        self.cache.drop_all_callbacks()
        # The next connection may be a very different network.
        self.estimator.reset()

    def connect(self):
        """Generator: probe the server and come online if reachable.

        Runs validation, then enters write disconnected (Figure 2: the
        transition from emulating "occurs on any connection, regardless
        of strength"), then — if strongly connected — drains the CML
        and moves to hoarding.
        """
        if not (yield from self._ping_server(pad=4096)):
            return False
        strength = self.monitor.classify(True, self.current_bandwidth_bps())
        if self.state.state is VenusState.EMULATING:
            self.state.transition(VenusState.WRITE_DISCONNECTED,
                                  self.sim.now)
            with self._foreground():
                yield from self._revalidate()
        yield from self._maybe_promote(strength)
        return True

    def _ping_server(self, pad=0):
        """Generator: probe the server; True once it answers."""
        try:
            yield self.endpoint.ping(self.server_node)
            if pad:
                yield self.endpoint.ping(self.server_node, pad=pad)
        except ConnectionDead:
            return False
        return True

    def _revalidate(self):
        try:
            yield from self.validator.validate_all()
        except ConnectionDead:
            self.handle_disconnection()

    def _maybe_promote(self, strength):
        """Generator: move between WD and hoarding per strength."""
        if self.config.force_write_disconnected:
            return
        state = self.state.state
        if state is VenusState.WRITE_DISCONNECTED \
                and strength is ConnectionStrength.STRONG:
            drained = yield from self.trickle.drain()
            if drained and self.state.state \
                    is VenusState.WRITE_DISCONNECTED:
                self.state.transition(VenusState.HOARDING, self.sim.now)
                self.suppressed_fetches.clear()
        elif state is VenusState.HOARDING \
                and strength is ConnectionStrength.WEAK:
            self.state.transition(VenusState.WRITE_DISCONNECTED,
                                  self.sim.now)

    def _note_volume_stamp(self, volid, stamp):
        """Track a fresh stamp only when our volume callback held.

        Without a callback, another client may have updated the volume
        before this reply; trusting the stamp would wrongly validate
        the whole volume later.
        """
        info = self.cache.volume_info(volid)
        if info.callback:
            info.stamp = stamp

    # ------------------------------------------------------------------
    # Reintegration outcomes (called by the trickle engine)

    def on_reintegration_success(self, records, new_versions, stamps):
        for fid, version in new_versions.items():
            entry = self.cache.get(fid)
            if entry is not None:
                entry.version = version
                entry.local = False
        for record in self.cml:
            if record.base_version is not None \
                    and record.fid in new_versions:
                record.base_version = new_versions[record.fid]
            if record.fid in new_versions and record.base_version is None \
                    and record.op in (CmlOp.STORE, CmlOp.UNLINK):
                record.base_version = new_versions[record.fid]
        for volid, stamp in stamps.items():
            self._note_volume_stamp(volid, stamp)
        self._refresh_dirty()

    def on_reintegration_conflict(self, pairs):
        for record, reason in pairs:
            self.conflicts.add(record, reason,
                               self._best_path_for(record), self.sim.now)
            entry = self.cache.get(record.fid)
            if entry is not None:
                entry.callback = False
                if entry.local:
                    self.cache.remove(entry.fid)
        self._refresh_dirty()

    def _best_path_for(self, record):
        """Best-known path of a conflicted record's object."""
        entry = self.cache.get(record.fid)
        if entry is not None and entry.path:
            return entry.path
        if record.parent is not None and record.name:
            parent = self.cache.get(record.parent)
            if parent is not None and parent.path:
                return parent.path + "/" + record.name
        return None

    def list_conflicts(self):
        """Unresolved conflicts awaiting user repair (section 2.2)."""
        return self.conflicts.pending()

    def repair(self, conflict, keep):
        """Generator: resolve a conflict, keeping 'mine' or 'theirs'."""
        if isinstance(conflict, int):
            conflict = self.conflicts.get(conflict)
        resolved = yield from self.repairer.resolve(conflict, keep)
        return resolved

    # ------------------------------------------------------------------
    # Server-initiated callbacks

    def _h_break_callback(self, ctx, args):
        for fid in args.get("fids", ()):
            self.cache.break_object(fid)
        for volid in args.get("volumes", ()):
            self.cache.break_volume(volid)
        return {}

    # ------------------------------------------------------------------
    # Daemons

    def _probe_daemon(self):
        """Reconnection probing and connectivity reclassification."""
        config = self.config
        bw_probe_due = 0.0
        last_bw_samples = -1
        while True:
            yield self.sim.sleep(config.probe_interval)
            state = self.state.state
            if state is VenusState.EMULATING:
                yield from self.connect()
                continue
            # Connected: keep liveness fresh and the classification
            # current.  An active transfer already refreshes both.
            silent = self.endpoint.liveness.silent_for(self.server_node)
            if silent >= config.keepalive_interval:
                if not (yield from self._ping_server()):
                    self.handle_disconnection()
                    continue
            # When no transfers have refreshed the bandwidth estimate
            # lately, probe: the network under the client may have
            # changed (modem at night, Ethernet in the morning).
            samples = self.estimator.bandwidth.samples
            if samples == last_bw_samples and self.sim.now >= bw_probe_due:
                if not (yield from self._ping_server(
                        pad=config.bandwidth_probe_pad)):
                    self.handle_disconnection()
                    continue
                bw_probe_due = self.sim.now \
                    + config.bandwidth_probe_interval
            last_bw_samples = self.estimator.bandwidth.samples
            strength = self.monitor.classify(
                True, self.current_bandwidth_bps())
            yield from self._maybe_promote(strength)

    def _walk_daemon(self):
        """Hoard walks "once every 10 minutes"."""
        while True:
            yield self.sim.sleep(self.config.hoard_walk_interval)
            if self.state.state is VenusState.EMULATING:
                continue
            try:
                yield from self.hoard_walk()
            except ConnectionDead:
                self.handle_disconnection()


#: Guessed entry size used before a fetch returns real status.
ENTRY_SPACE_GUESS = 256
