"""Trickle reintegration (section 4.3).

A background daemon propagates aged CML records to the server while
Venus is write disconnected:

* the *aging window* A keeps records in the log long enough for
  optimizations to cancel them (section 4.3.4; default 600 s);
* the *reintegration barrier* freezes the chunk being shipped
  (Figure 3); concurrent updates append to the right of it;
* the *chunk size* C adapts to bandwidth — 30 seconds' worth of
  transmission (36 KB at 9.6 Kb/s, 240 KB at 64 Kb/s, 7.7 MB at
  2 Mb/s) — bounding how long a chunk can monopolize a slow link
  (section 4.3.5);
* a store record bigger than C ships its file as a series of
  *fragments* of at most C bytes; a failure resumes after the last
  successful fragment, and the server only attempts reintegration
  once the entire file is present.
"""

from dataclasses import dataclass

from repro.rpc2.errors import ConnectionDead
from repro.rpc2.packets import RPC2_HEADER
from repro.sim.events import At
from repro.venus.cml import RECORD_OVERHEAD, CmlOp
from repro.venus.states import VenusState


@dataclass
class TrickleStats:
    """Wire accounting for the Figure 14 style tables."""

    chunks_attempted: int = 0
    chunks_committed: int = 0
    records_shipped: int = 0
    bytes_shipped: int = 0          # CML data put on the wire
    fragments_shipped: int = 0
    conflicts: int = 0
    aborts: int = 0                 # network/server failures mid-chunk


class TrickleReintegrator:
    """The reintegration daemon plus forced-drain entry points."""

    def __init__(self, venus):
        from repro.sim.resources import Lock
        self.venus = venus
        self.sim = venus.sim
        self.stats = TrickleStats()
        self._fragment_progress = {}    # seqno -> fragments already acked
        self._draining = False
        self._process = None
        self._parked = None             # the event a parked daemon waits on
        venus.state.on_transition(self._on_transition)
        # The daemon, user-forced drains, and the write-disconnected ->
        # hoarding transition can all try to reintegrate concurrently;
        # only one may hold the barrier at a time.
        self._chunk_lock = Lock(venus.sim)

    # ------------------------------------------------------------------
    # Policy

    @property
    def config(self):
        return self.venus.config

    def chunk_bytes(self):
        """C: the current chunk budget, 30 s of estimated bandwidth."""
        bandwidth = self.venus.current_bandwidth_bps()
        return max(RECORD_OVERHEAD,
                   int(self.config.chunk_seconds * bandwidth / 8.0))

    # ------------------------------------------------------------------
    # Daemon

    def start(self):
        if self._process is None or not self._process.is_alive:
            self._process = self.sim.process(self._run(), name="trickle",
                                             owner=self.venus.node)
        return self._process

    def _run(self):
        """The daemon: a pass at every grid instant where it can act.

        The grid is the chain ``anchor + period + period + ...``
        started at the daemon's start and restarted where each pass
        returns.  At a grid instant where Venus is not write
        disconnected, or a drain holds the log, the daemon parks on a
        one-shot event and schedules nothing; :meth:`_wake` fires it.
        On waking it adds ``period`` to the anchor until it reaches
        the first grid instant after the park that is not before now,
        by repeated addition, so every instant it checks is the float
        a ``sleep(period)`` chain would have reached.  It re-checks
        there, not at the wake.
        """
        period = self.config.daemon_period
        sim = self.sim
        venus = self.venus
        grid = sim.now
        while True:
            grid += period
            yield At(sim, grid)
            if venus.state.state is not VenusState.WRITE_DISCONNECTED \
                    or self._draining:
                self._parked = parked = sim.event()
                yield parked
                now = sim.now
                while grid + period < now:
                    grid += period
                continue
            yield from self._pass(venus.effective_aging_window(),
                                  defer_to_foreground=True)
            grid = sim.now

    def _wake(self):
        """Fire the parked daemon's event, if it is parked."""
        parked = self._parked
        if parked is not None:
            self._parked = None
            parked.succeed()

    def _on_transition(self, old, new):
        if new is VenusState.WRITE_DISCONNECTED and not self._draining:
            self._wake()

    def _pass(self, aging_window, defer_to_foreground):
        """Ship chunks until nothing is eligible (one daemon activation)."""
        venus = self.venus
        while venus.state.state is not VenusState.EMULATING:
            if defer_to_foreground and venus.foreground_ops > 0:
                return
            now = self.sim.now
            if not venus.cml.eligible_records(now, aging_window):
                return
            progressed = yield from self._one_chunk(aging_window)
            if not progressed:
                return

    def drain(self):
        """Process body: reintegrate everything now, regardless of age.

        Used for user-forced reintegration ("about to move out of
        range") and for the write disconnected -> hoarding transition.
        Returns True if the CML fully drained.
        """
        self._draining = True
        try:
            while len(self.venus.cml) \
                    and self.venus.state.state is not VenusState.EMULATING:
                progressed = yield from self._one_chunk(aging_window=0.0)
                if not progressed:
                    return False
            return len(self.venus.cml) == 0
        finally:
            self._draining = False
            if self.venus.state.state is VenusState.WRITE_DISCONNECTED:
                self._wake()

    # ------------------------------------------------------------------
    # One chunk

    def _one_chunk(self, aging_window):
        """Ship one chunk (or one fragmented big store).

        Returns True if records left the CML (progress), False on
        failure (disconnection, or conflicts that only shrank the log).
        """
        venus = self.venus
        cml = venus.cml
        yield self._chunk_lock.acquire()
        try:
            now = self.sim.now
            budget = self.chunk_bytes() \
                if not self.config.whole_chunk_mode else float("inf")
            chunk = cml.select_chunk(now, aging_window, budget)
            if not chunk:
                return False
            preshipped = set()
            self.stats.chunks_attempted += 1
            cml.freeze(len(chunk))
            try:
                if (len(chunk) == 1 and chunk[0].op is CmlOp.STORE
                        and chunk[0].size > budget):
                    yield from self._ship_fragments(chunk[0], budget)
                    preshipped.add(chunk[0].seqno)
                yield from self._reintegrate_frozen(chunk, preshipped)
                return True
            except ConnectionDead:
                self.stats.aborts += 1
                cml.abort_frozen()
                venus.handle_disconnection()
                return False
            except BaseException:
                if cml.frozen_count:
                    cml.abort_frozen()
                raise
        finally:
            self._chunk_lock.release()

    def _ship_fragments(self, record, budget):
        """Ship one large store's file as fragments of at most C bytes."""
        size = record.content.size
        fragment = max(1, int(budget))
        total = (size + fragment - 1) // fragment
        start = self._fragment_progress.get(record.seqno, 0)
        for index in range(start, total):
            nbytes = min(fragment, size - index * fragment)
            yield self.venus.conn.call(
                "PutFragment",
                {"key": record.seqno, "index": index, "total_size": size},
                args_size=RPC2_HEADER, send_size=nbytes)
            self._fragment_progress[record.seqno] = index + 1
            self.stats.fragments_shipped += 1
            self.stats.bytes_shipped += nbytes
            obs = self.sim.obs
            if obs.enabled:
                obs.metrics.counter("reintegration.fragments",
                                    node=self.venus.node).inc()
                obs.metrics.counter("reintegration.fragment_bytes",
                                    node=self.venus.node).inc(nbytes)
                obs.event("fragment", node=self.venus.node,
                          seqno=record.seqno, index=index, total=total,
                          bytes=nbytes)
            # Between fragments, defer to foreground activity.
            while self.venus.foreground_ops > 0 and not self._draining:
                yield self.sim.sleep(1.0)

    def _reintegrate_frozen(self, chunk, preshipped):
        venus = self.venus
        cml = venus.cml
        inline_bytes = sum(
            r.content.size for r in chunk
            if r.op is CmlOp.STORE and r.content is not None
            and r.seqno not in preshipped)
        result = yield venus.conn.call(
            "Reintegrate",
            {"records": list(chunk), "preshipped": sorted(preshipped)},
            args_size=16 + RECORD_OVERHEAD * len(chunk),
            send_size=inline_bytes)
        outcome = result.result
        if outcome["status"] == "ok":
            records = cml.commit_frozen()
            self.stats.chunks_committed += 1
            self.stats.records_shipped += len(records)
            shipped = inline_bytes + RECORD_OVERHEAD * len(records)
            self.stats.bytes_shipped += shipped
            for record in records:
                self._fragment_progress.pop(record.seqno, None)
            venus.on_reintegration_success(
                records, outcome["new_versions"], outcome["volume_stamps"])
            self._observe_chunk("committed", len(records), shipped)
        elif outcome["status"] == "conflict":
            conflicted_seqnos = {seqno for seqno, _ in outcome["conflicts"]}
            reasons = dict(outcome["conflicts"])
            doomed = [r for r in chunk if r.seqno in conflicted_seqnos]
            self.stats.conflicts += len(doomed)
            cml.abort_frozen()
            cml.discard(doomed)
            venus.on_reintegration_conflict(
                [(record, reasons[record.seqno]) for record in doomed])
            self._observe_chunk("conflict", len(chunk), inline_bytes,
                                conflicts=len(doomed))
        elif outcome["status"] == "missing_data":
            # The server lost fragments; forget our progress and let the
            # next pass re-ship them.
            for seqno in outcome["missing"]:
                self._fragment_progress.pop(seqno, None)
            cml.abort_frozen()
            self._observe_chunk("missing_data", len(chunk), 0)
        else:
            raise AssertionError("unknown reintegration status %r"
                                 % (outcome,))

    def _observe_chunk(self, status, records, shipped_bytes, **extra):
        """Record one concluded reintegration chunk."""
        obs = self.sim.obs
        if not obs.enabled:
            return
        venus = self.venus
        obs.metrics.counter("reintegration.chunks", node=venus.node,
                            status=status).inc()
        obs.metrics.counter("reintegration.records",
                            node=venus.node).inc(records)
        obs.metrics.counter("reintegration.bytes",
                            node=venus.node).inc(shipped_bytes)
        obs.event("reintegration_chunk", node=venus.node, status=status,
                  records=records, bytes=shipped_bytes,
                  cml_records=len(venus.cml),
                  cml_bytes=venus.cml.size_bytes, **extra)
