"""The RPC2 endpoint: one socket, one host, both client and server roles.

An endpoint owns a datagram socket and charges the host's CPU costs
for every packet it sends and receives — on 1995 hardware this, not
the Ethernet, is the fast-network bottleneck.  Each direction is a
FIFO queue served by a chain of callbacks: a packet books the CPU when
the one ahead of it finishes (not when it is queued, so a burst cannot
jump ahead of a foreground Venus operation) and costs one event, at
its finish instant.  Incoming packets are dispatched to: pending
client calls (replies, busies, go-aheads), SFTP transfers (data and
acks), the server dispatcher (requests), or the keepalive responder
(pings).

Everything that arrives also refreshes the shared
:class:`~repro.rpc2.keepalive.LivenessRegistry` — the paper's fix for
the duplicated keepalive traffic of the original layering.

An RPC costs the host what its packets cost.  A ping is a callback
chain, not a process: one same-instant hop (where a ping process would
have started, so the Ping cannot jump ahead of work already queued at
that instant) sends it and arms its expiry, and the Pong or the expiry
settles the event :meth:`Rpc2Endpoint.ping` returned — eight
dispatches, six of them its two packets'.  The server side runs a
generator handler inside the call's own process (``yield from``), and
a finished transfer's grace period is one ``Timeout`` with a callback.
Each connection, SFTP transfer and Venus binds its peer's
:class:`~repro.rpc2.rtt.NetworkEstimator` once.
"""

from collections import deque
from functools import partial
from itertools import count

from repro.net.cpu import HostCpu
from repro.rpc2.errors import ConnectionDead, TransferAborted
from repro.rpc2.keepalive import LivenessRegistry
from repro.rpc2.packets import (
    Busy,
    Go,
    Ping,
    Pong,
    Reply,
    Request,
    SftpAck,
    SftpData,
    SMALL_ARGS,
)
from repro.rpc2.rtt import NetworkEstimator
from repro.rpc2.sftp import SftpReceiver, SftpSender
from repro.sim.events import At, Event, Interrupt, Timeout
from repro.sim.resources import Lock, Store

#: Client retransmission policy.
MAX_CALL_RETRIES = 7
#: Patience granted after a BUSY before probing again.
BUSY_PATIENCE = 15.0
#: Seconds a finished SFTP transfer stays in its table for late
#: duplicates.
TRANSFER_GRACE = 300.0


class RemoteError(Exception):
    """The remote handler reported an application-level error."""


class CallResult:
    """Outcome of an RPC: the handler's result plus any fetched bytes."""

    def __init__(self, result, bulk_bytes=0):
        self.result = result
        self.bulk_bytes = bulk_bytes


class _CallContext:
    """What a server-side handler can see about the call it is serving."""

    def __init__(self, endpoint, peer, send_size):
        self.endpoint = endpoint
        self.peer = peer
        self.send_size = send_size       # bytes the client is uploading
        self.received_bytes = 0          # filled once the upload completes
        self.sim = endpoint.sim


class Rpc2Endpoint:
    """An RPC2/SFTP protocol engine bound to ``(node, port)``."""

    def __init__(self, sim, network, node, port, host,
                 default_bps=9600.0, first_conn_id=1):
        self.sim = sim
        self.network = network
        self.node = node
        self.port = port
        self.host = host
        self.cpu = HostCpu(sim, host)
        self.default_bps = default_bps
        self.socket = network.socket(node, port, self._arrived)
        self.liveness = LivenessRegistry(sim)
        self._estimators = {}
        self._handlers = {}
        # Connection ids start at ``first_conn_id`` so an endpoint
        # rebuilt after a crash never reuses ids from its previous
        # incarnation — a peer's at-most-once cache would swallow the
        # new connection's calls as duplicates otherwise.
        self._next_conn_id = first_conn_id
        self._calls = {}            # (peer, conn, seq) -> call state
        self._server_conns = {}     # (peer, conn) -> per-connection state
        self._sftp_senders = {}     # transfer_id -> SftpSender
        self._sftp_receivers = {}   # transfer_id -> SftpReceiver
        # The two packet queues, each with a flag that is set while a
        # packet of its direction has booked the CPU and not finished.
        self._outbox = deque()      # (peer, packet) to send
        self._sending = False
        self._inbox = deque()       # datagrams received
        self._receiving = False
        self._ping_waiters = {}     # seq -> _Ping not yet answered
        self._ping_seq = count(1)
        self.packets_out = 0
        self.bytes_out = 0
        # The per-packet obs counters by packet kind, held for the
        # observatory in ``_meter_obs`` and dropped when ``sim.obs`` is
        # another one (see LinkDirection._sent_meters).
        self._meter_obs = None
        self._out_meters = {}       # packet type -> (packets, bytes)

    def shutdown(self):
        """Tear the endpoint down as a crash would: the socket closes
        and every process owned by this node dies mid-flight.  In-flight
        transfers, pending calls, and server-side handler state are all
        volatile and vanish with them, and a packet whose CPU time
        finishes after the close is neither sent nor dispatched.
        A pending ping dies with them: it fails with ``Interrupt``, as
        the process it replaced did, so a caller the kill did not reach
        does not hang.  Returns the count of processes killed."""
        if not self.socket.closed:
            self.socket.close()
        killed = self.sim.kill_owned(self.node)
        waiters = self._ping_waiters
        self._ping_waiters = {}
        for _seq, ping in sorted(waiters.items()):
            ping.done.fail(Interrupt(None))
            ping.done.defuse()
        return killed

    # ------------------------------------------------------------------
    # Shared infrastructure

    def estimator(self, peer):
        """The per-peer network quality estimate (shared with Venus).

        One object per peer for the endpoint's lifetime (``reset()``
        works in place), so a connection or transfer binds it once."""
        est = self._estimators.get(peer)
        if est is None:
            est = NetworkEstimator()
            self._estimators[peer] = est
        return est

    def _send(self, peer, packet):
        """Queue ``packet`` for paced transmission to ``peer``."""
        if self._sending:
            self._outbox.append((peer, packet))
        elif not self.socket.closed:
            self._start_send(peer, packet)

    def _start_send(self, peer, packet):
        self._sending = True
        size = packet.wire_size
        cost = self.host.send_cost(size)
        if cost > 0:
            done = At(self.sim, self.cpu.reserve(cost), (peer, packet, size))
        else:
            # A free host still hands the packet on one step later, at
            # the same instant, as a queue consumer would.
            done = Event(self.sim).succeed((peer, packet, size))
        done.callbacks.append(self._sent)

    def _sent(self, event):
        if self.socket.closed:
            return
        peer, packet, size = event._value
        self.packets_out += 1
        self.bytes_out += size
        obs = self.sim.obs
        if obs.enabled:
            if obs is not self._meter_obs:
                self._meter_obs = obs
                self._out_meters = {}
            meters = self._out_meters.get(type(packet))
            if meters is None:
                counter = obs.metrics.counter
                kind = type(packet).__name__
                meters = self._out_meters[type(packet)] = (
                    counter("rpc.packets_out", node=self.node, kind=kind),
                    counter("rpc.bytes_out", node=self.node, kind=kind))
            meters[0].inc()
            meters[1].inc(size)
        # Endpoints bind the same well-known port on every node.
        self.socket.send(peer, self.port, packet, size)
        if self._outbox:
            self._start_send(*self._outbox.popleft())
        else:
            self._sending = False

    def _arrived(self, datagram):
        """The socket's delivery callback."""
        if self._receiving:
            self._inbox.append(datagram)
        else:
            self._start_recv(datagram)

    def _start_recv(self, datagram):
        self._receiving = True
        cost = self.host.recv_cost(datagram.size)
        if cost > 0:
            done = At(self.sim, self.cpu.reserve(cost), datagram)
        else:
            done = Event(self.sim).succeed(datagram)
        done.callbacks.append(self._received)

    def _received(self, event):
        if self.socket.closed:
            return
        datagram = event._value
        self.liveness.heard_from(datagram.src)
        self._dispatch(datagram.src, datagram.payload)
        if self._inbox:
            self._start_recv(self._inbox.popleft())
        else:
            self._receiving = False

    def _observe_echo(self, peer, packet):
        echo = getattr(packet, "ts_echo", None)
        if echo is not None:
            ts, hold = echo
            estimator = self._estimators.get(peer) or self.estimator(peer)
            estimator.rtt.observe(self.sim.now - ts - hold)

    def _dispatch(self, peer, packet):
        if isinstance(packet, SftpData):
            tid = packet.transfer_id
            receiver = self._sftp_receivers.get(tid)
            if receiver is None and tid[3] == "fetch" and tid[0] == self.node:
                # First data packet of an RPC fetch: create the receiver
                # on demand, but only if the owning call is still live.
                call_key = (peer, tid[1], tid[2])
                if call_key in self._calls:
                    receiver = SftpReceiver(self.sim, self, peer, tid)
                    self._sftp_receivers[tid] = receiver
            if receiver is not None:
                receiver.on_data(packet)
            call = self._calls.get((peer, tid[1], tid[2]))
            if call is not None:
                call["progress"] = self.sim.now
            return
        if isinstance(packet, SftpAck):
            sender = self._sftp_senders.get(packet.transfer_id)
            if sender is not None:
                sender.inbox.put(packet)
            return
        if isinstance(packet, Request):
            self._observe_echo(peer, packet)
            self._on_request(peer, packet)
            return
        if isinstance(packet, (Reply, Busy, Go)):
            self._observe_echo(peer, packet)
            call = self._calls.get((peer, packet.conn, packet.seq))
            if call is not None:
                call["inbox"].put(packet)
            return
        if isinstance(packet, Ping):
            # The pad travels one way only: a padded ping measures the
            # forward path without paying the cost twice.
            self._send(peer, Pong(conn=packet.conn, seq=packet.seq,
                                  ts=self.sim.now,
                                  ts_echo=(packet.ts, 0.0)))
            return
        if isinstance(packet, Pong):
            self._observe_echo(peer, packet)
            ping = self._ping_waiters.pop(packet.seq, None)
            if ping is not None:
                ping.answered()
            return

    # ------------------------------------------------------------------
    # Client role

    def connect(self, peer):
        """Open a logical connection to ``peer``'s endpoint."""
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        return Rpc2Connection(self, peer, conn_id)

    def ping(self, peer, pad=0):
        """Round-trip a ping: an event that succeeds with the RTT, or
        fails with :class:`ConnectionDead` once a timeout derived from
        the peer's estimates and ``pad`` passes."""
        seq = next(self._ping_seq)
        ping = self._ping_waiters[seq] = _Ping(self, peer, pad, seq)
        # The hop: the Ping is queued one step later at this instant,
        # behind whatever was already due now, as a process would.
        Event(self.sim).succeed().callbacks.append(ping.start)
        return ping.done

    # ------------------------------------------------------------------
    # Server role

    def register(self, procedure, handler):
        """Expose ``handler(ctx, args)`` as RPC ``procedure``.

        The handler may be a plain function or a generator (so it can
        yield simulation events, e.g. disk delays).  It returns either
        ``result`` or ``(result, reply_bulk_size)`` — a positive bulk
        size triggers an SFTP transfer of that many bytes back to the
        caller before the reply.
        """
        self._handlers[procedure] = handler

    def _on_request(self, peer, request):
        conn_key = (peer, request.conn)
        state = self._server_conns.get(conn_key)
        if state is None:
            state = {"done_seq": 0, "reply": None, "active": None}
            self._server_conns[conn_key] = state
        if request.seq <= state["done_seq"]:
            # Duplicate of a completed call: resend the cached reply.
            if state["reply"] is not None and request.seq == state["done_seq"]:
                self._send(peer, state["reply"])
            return
        if state["active"] == request.seq:
            # Retransmission of the call in progress.
            if request.send_size > 0 and not state.get("upload_started"):
                self._send(peer, Go(conn=request.conn, seq=request.seq,
                                    ts=self.sim.now))
            else:
                self._send(peer, Busy(conn=request.conn, seq=request.seq,
                                      ts=self.sim.now))
            return
        state["active"] = request.seq
        state["upload_started"] = False
        self.sim.process(self._serve(peer, request, state),
                         name="serve-%s-%s" % (request.proc, request.seq),
                         owner=self.node)

    def _serve(self, peer, request, state):
        ctx = _CallContext(self, peer, request.send_size)
        error = None
        result = None
        bulk_size = 0
        try:
            if request.send_size > 0:
                # Invite the upload and wait for it to land.
                transfer_id = (peer, request.conn, request.seq, "store")
                receiver = SftpReceiver(self.sim, self, peer, transfer_id)
                self._sftp_receivers[transfer_id] = receiver
                self._send(peer, Go(conn=request.conn, seq=request.seq,
                                    ts=self.sim.now))
                state["upload_started"] = True
                try:
                    ctx.received_bytes = yield receiver.done
                finally:
                    self._expire_transfer(self._sftp_receivers, transfer_id,
                                          receiver)
            handler = self._handlers.get(request.proc)
            if handler is None:
                error = "no such procedure: %s" % request.proc
            else:
                outcome = handler(ctx, request.args)
                if hasattr(outcome, "__next__"):
                    outcome = yield from outcome
                if isinstance(outcome, tuple) and len(outcome) == 2:
                    result, bulk_size = outcome
                else:
                    result = outcome
            if not error and bulk_size:
                transfer_id = (peer, request.conn, request.seq, "fetch")
                sender = SftpSender(self.sim, self, peer, transfer_id,
                                    bulk_size)
                self._sftp_senders[transfer_id] = sender
                try:
                    yield self.sim.process(sender.run(),
                                           name="sftp-send-reply",
                                           owner=self.node)
                finally:
                    self._expire_transfer(self._sftp_senders, transfer_id,
                                          sender)
        except TransferAborted:
            # Bulk data never made it; drop the call. The client's own
            # timeout machinery will declare the connection dead.
            state["active"] = None
            return
        reply = Reply(conn=request.conn, seq=request.seq,
                      ts=self.sim.now, result=result, error=error,
                      result_size=getattr(result, "wire_size", SMALL_ARGS)
                      if result is not None else SMALL_ARGS)
        state["done_seq"] = request.seq
        state["reply"] = reply
        state["active"] = None
        self._send(peer, reply)

    def _expire_transfer(self, table, transfer_id, transfer):
        """Drop ``transfer`` from ``table`` after a grace period for
        late duplicates, unless a newer transfer has taken its id."""
        Timeout(self.sim, TRANSFER_GRACE).callbacks.append(
            partial(_expire, table, transfer_id, transfer))


def _expire(table, transfer_id, transfer, _event):
    if table.get(transfer_id) is transfer:
        del table[transfer_id]


class _Ping:
    """One ping: asked for, then sent in its hop, then answered by its
    Pong or failed by its expiry, whichever comes first."""

    __slots__ = ("endpoint", "peer", "pad", "seq", "done", "started",
                 "estimator")

    def __init__(self, endpoint, peer, pad, seq):
        self.endpoint = endpoint
        self.peer = peer
        self.pad = pad
        self.seq = seq
        self.done = Event(endpoint.sim)

    def start(self, _hop):
        endpoint = self.endpoint
        if self.seq not in endpoint._ping_waiters:
            return                  # the endpoint shut down in between
        sim = endpoint.sim
        pad = self.pad
        estimator = self.estimator = endpoint.estimator(self.peer)
        if pad:
            # A padded ping is a bandwidth probe: it must not time out
            # just because the line is slow.  Budget for the slowest
            # supported link (1.2 Kb/s SLIP, 10 bits/byte); plain pings
            # already provide fast dead-peer detection.
            timeout = pad * 10.0 / 1200.0 * 1.5 + estimator.rtt.rto + 1.0
        else:
            timeout = max(estimator.rtt.rto,
                          estimator.expected_transfer_time(
                              pad, default_bps=endpoint.default_bps)
                          * 2 + 1.0)
        self.started = sim.now
        endpoint._send(self.peer, Ping(conn=0, seq=self.seq, ts=sim.now,
                                       pad=pad))
        Timeout(sim, timeout).callbacks.append(self.expired)

    def answered(self):
        rtt = self.endpoint.sim.now - self.started
        if self.pad:
            self.estimator.observe_transfer(self.pad, rtt)
        self.done.succeed(rtt)

    def expired(self, _expiry):
        if self.endpoint._ping_waiters.pop(self.seq, None) is None:
            return                  # answered, or shut down with its endpoint
        self.done.fail(ConnectionDead("ping to %s timed out" % self.peer))


class Rpc2Connection:
    """Client-side handle for calls to one peer.

    Calls on one connection are *serialized*, as in real RPC2: a fetch
    issued while a long reintegration RPC is outstanding waits for it.
    This serialization is exactly why trickle reintegration bounds its
    chunk transmission time (section 4.3.5) — an unbounded chunk would
    make a concurrent high-priority call wait arbitrarily long.
    """

    def __init__(self, endpoint, peer, conn_id):
        self.endpoint = endpoint
        self.peer = peer
        self.conn_id = conn_id
        self.sim = endpoint.sim
        self.estimator = endpoint.estimator(peer)
        self._seq = count(1)
        self._lock = Lock(endpoint.sim)

    def call(self, procedure, args=None, args_size=SMALL_ARGS,
             send_size=0, max_retries=MAX_CALL_RETRIES):
        """Start the RPC as a process; yield it to get a CallResult.

        Raises :class:`ConnectionDead` if the server stops responding
        and :class:`RemoteError` if the handler reports failure.
        """
        return self.sim.process(
            self._serialized_call(procedure, args, args_size, send_size,
                                  max_retries),
            name="call-%s" % procedure, owner=self.endpoint.node)

    def _serialized_call(self, procedure, args, args_size, send_size,
                         max_retries):
        yield self._lock.acquire()
        try:
            result = yield from self._call(procedure, args, args_size,
                                           send_size, max_retries)
            return result
        finally:
            self._lock.release()

    def _call(self, procedure, args, args_size, send_size, max_retries):
        sim = self.sim
        endpoint = self.endpoint
        seq = next(self._seq)
        key = (self.peer, self.conn_id, seq)
        inbox = Store(sim)
        call_state = {"inbox": inbox, "progress": None}
        endpoint._calls[key] = call_state
        estimator = self.estimator
        request = Request(conn=self.conn_id, seq=seq, proc=procedure,
                          args=args, args_size=args_size,
                          send_size=send_size, ts=sim.now)
        fetch_tid = (endpoint.node, self.conn_id, seq, "fetch")
        store_tid = (endpoint.node, self.conn_id, seq, "store")
        started = sim.now
        try:
            attempts = 0
            patience = (estimator.rtt.rto +
                        estimator.expected_transfer_time(
                            args_size, default_bps=endpoint.default_bps))
            endpoint._send(self.peer, request)
            obs = sim.obs
            if obs.enabled:
                obs.event("rpc_send", node=endpoint.node, peer=self.peer,
                          proc=procedure, seq=seq, conn=self.conn_id,
                          send_size=send_size)
            pending = inbox.get()
            while True:
                timeout = sim.sleep(patience)
                yield sim.any_of([pending, timeout])
                if pending.triggered:
                    packet = pending.value
                    pending = inbox.get()
                    attempts = 0
                    if isinstance(packet, Reply):
                        if packet.error is not None:
                            raise RemoteError(packet.error)
                        receiver = endpoint._sftp_receivers.pop(
                            fetch_tid, None)
                        bulk = receiver.bytes_received if receiver else 0
                        obs = sim.obs
                        if obs.enabled:
                            latency = sim.now - started
                            obs.metrics.histogram(
                                "rpc.latency_seconds", node=endpoint.node,
                                proc=procedure).observe(latency)
                            obs.event("rpc_reply", node=endpoint.node,
                                      peer=self.peer, proc=procedure,
                                      seq=seq, latency=latency, bulk=bulk)
                        return CallResult(packet.result, bulk)
                    if isinstance(packet, Busy):
                        # The server is working; poll again after a few
                        # RTTs rather than a long fixed wait, so a lost
                        # Reply costs little.
                        patience = min(BUSY_PATIENCE,
                                       max(1.0, 4 * estimator.rtt.rto))
                        continue
                    if isinstance(packet, Go) and send_size:
                        # Every Go invites an upload: one that arrives
                        # after ours finished comes from a restarted
                        # server that lost it.
                        sender = SftpSender(sim, endpoint, self.peer,
                                            store_tid, send_size)
                        endpoint._sftp_senders[store_tid] = sender
                        try:
                            yield sim.process(sender.run(),
                                              name="sftp-send-store",
                                              owner=endpoint.node)
                        except TransferAborted as aborted:
                            raise ConnectionDead(str(aborted)) from aborted
                        finally:
                            endpoint._expire_transfer(endpoint._sftp_senders,
                                                      store_tid, sender)
                        patience = min(BUSY_PATIENCE,
                                       max(1.0, 4 * estimator.rtt.rto))
                        continue
                    continue
                # Timed out without hearing anything for this call.
                progress = call_state.get("progress")
                if progress is not None and sim.now - progress < patience:
                    # SFTP data is flowing; the server is alive.
                    continue
                attempts += 1
                if attempts > max_retries:
                    raise ConnectionDead(
                        "call %s to %s timed out" % (procedure, self.peer))
                request.ts = sim.now
                endpoint._send(self.peer, request)
                obs = sim.obs
                if obs.enabled:
                    obs.metrics.counter("rpc.retransmits",
                                        node=endpoint.node).inc()
                    obs.event("retransmit", node=endpoint.node,
                              peer=self.peer, proc=procedure, seq=seq,
                              attempt=attempts, layer="rpc2")
                patience = min(60.0, estimator.rtt.rto * (2 ** attempts))
        finally:
            endpoint._calls.pop(key, None)
            endpoint._sftp_receivers.pop(fetch_tid, None)
