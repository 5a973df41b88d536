"""The metrics registry: counters, gauges, and fixed-bucket histograms.

Every instrument is keyed by ``(name, labels)`` — asking the registry
for the same key twice returns the same instrument, so a cold call
site can simply say ``registry.counter("link.transitions",
link=name, to="up").inc()`` without caching handles.  That lookup
builds a kwargs dict and a sorted label tuple, so the sites that run
once per packet or per dispatch do not pay it each time:

* ``net/link.py`` (``link.{packets,bytes}_{sent,delivered}``) and
  ``rpc2/endpoint.py`` (``rpc.{packets,bytes}_out``) hold the handles
  they got from the registry and look them up again only when
  ``sim.obs`` is a different observatory than last time;
* ``sim/kernel.py`` keeps ``sim.events_dispatched`` and
  ``sim.queue_depth`` in loop locals and lands them once per run
  through :meth:`Counter.absorb` / :meth:`Gauge.absorb`.

Everything else (drops, retransmits, cache and CML accounting — some
35 sites that fire per operation, not per packet) stays in the
lookup-per-update form.  Updates are stamped with simulation time via
the registry's ``time_fn`` (wired to ``sim.now`` by the observatory
through a C ``attrgetter``), which every instrument holds directly —
one call and no Python frame per stamp — so exported metrics line up
with the event timeline.

Instruments never schedule simulation events and consume no
randomness: observing a run cannot perturb it.
"""

import math
from bisect import bisect_left

#: Default histogram buckets (upper bounds, seconds) spanning the
#: latencies seen across the paper's four orders of magnitude of
#: bandwidth — sub-RTT on Ethernet to multi-minute modem transfers.
DEFAULT_LATENCY_BUCKETS = (
    0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0,
    30.0, 60.0, 120.0, 300.0, 600.0,
)


def _label_key(labels):
    return tuple(sorted(labels.items()))


def format_labels(labels):
    """Render a label dict as a stable ``k=v,k=v`` string."""
    return ",".join("%s=%s" % (k, v) for k, v in sorted(labels.items()))


class Instrument:
    """Common base: identity, labels, and update stamping."""

    kind = "instrument"

    def __init__(self, name, labels, time_fn):
        self.name = name
        self.labels = dict(labels)
        self._time_fn = time_fn
        self.last_update = None

    @property
    def label_string(self):
        return format_labels(self.labels)

    def __repr__(self):
        return "<%s %s{%s}>" % (type(self).__name__, self.name,
                                self.label_string)


class Counter(Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name, labels, time_fn):
        super().__init__(name, labels, time_fn)
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up (amount=%r)" % (amount,))
        self.value += amount
        self.last_update = self._time_fn()
        return self.value

    def absorb(self, amount, stamp):
        """Add ``amount`` increments whose last one happened at ``stamp``.

        What a caller that counted in a local applies instead of
        ``amount`` separate :meth:`inc` calls; the result is the same.
        """
        self.value += amount
        self.last_update = stamp

    def data(self):
        return {"value": self.value, "last_update": self.last_update}


class Gauge(Instrument):
    """A value that goes up and down; tracks its min/max envelope."""

    kind = "gauge"

    def __init__(self, name, labels, time_fn):
        super().__init__(name, labels, time_fn)
        self.value = None
        self.min_value = None
        self.max_value = None

    def set(self, value):
        self.value = value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        self.last_update = self._time_fn()
        return value

    def absorb(self, value, low, high, stamp):
        """Apply a run of :meth:`set` calls summarised by the caller:
        the last value set (at ``stamp``) and the run's envelope."""
        self.value = value
        if self.min_value is None or low < self.min_value:
            self.min_value = low
        if self.max_value is None or high > self.max_value:
            self.max_value = high
        self.last_update = stamp

    def data(self):
        return {"value": self.value, "min": self.min_value,
                "max": self.max_value, "last_update": self.last_update}


class Histogram(Instrument):
    """Fixed-bucket histogram with count/sum/min/max.

    The buckets are :data:`DEFAULT_LATENCY_BUCKETS`, sorted inclusive
    upper bounds; an implicit +inf bucket catches the overflow.
    Percentiles are estimated from the cumulative bucket counts
    (upper-bound biased, like Prometheus ``histogram_quantile``).
    """

    kind = "histogram"

    bounds = DEFAULT_LATENCY_BUCKETS

    def __init__(self, name, labels, time_fn):
        super().__init__(name, labels, time_fn)
        self.counts = [0] * (len(self.bounds) + 1)   # +1: the +inf bucket
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # Bounds are inclusive upper limits: the first bound >= value,
        # or the +inf slot at len(bounds) when there is none.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.last_update = self._time_fn()

    @property
    def mean(self):
        return self.sum / self.count if self.count else None

    def quantile(self, q):
        """Estimated q-quantile (0..1) from bucket upper bounds."""
        if not self.count:
            return None
        target = q * self.count
        cumulative = 0
        for index, bound in enumerate(self.bounds):
            cumulative += self.counts[index]
            if cumulative >= target:
                return bound
        return self.max if self.max is not None else math.inf

    def bucket_rows(self):
        """``[(upper_bound, count), ...]`` including the +inf bucket."""
        rows = list(zip(self.bounds, self.counts))
        rows.append((math.inf, self.counts[-1]))
        return rows

    def data(self):
        return {"count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max,
                "buckets": [[b, c] for b, c in
                            zip(self.bounds, self.counts)],
                "overflow": self.counts[-1],
                "last_update": self.last_update}


class MetricsRegistry:
    """All instruments of one simulation, keyed by ``(name, labels)``."""

    def __init__(self, time_fn=None):
        self._time_fn = time_fn or (lambda: 0.0)
        self._instruments = {}
        self._kinds = {}            # name -> instrument class

    def _get(self, cls, name, labels):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is not None:
            if not isinstance(instrument, cls):
                raise TypeError(
                    "%r is registered as a %s, not a %s"
                    % (name, instrument.kind, cls.kind))
            return instrument
        known = self._kinds.get(name)
        if known is not None and known is not cls:
            raise TypeError("%r is registered as a %s, not a %s"
                            % (name, known.kind, cls.kind))
        instrument = cls(name, labels, self._time_fn)
        self._instruments[key] = instrument
        self._kinds[name] = cls
        return instrument

    def counter(self, name, **labels):
        return self._get(Counter, name, labels)

    def gauge(self, name, **labels):
        return self._get(Gauge, name, labels)

    def histogram(self, name, **labels):
        return self._get(Histogram, name, labels)

    # -- querying --------------------------------------------------------

    def __len__(self):
        return len(self._instruments)

    def instruments(self):
        """All instruments, sorted by (name, labels) for stable output."""
        return [self._instruments[key]
                for key in sorted(self._instruments)]

    def find(self, name, **labels):
        """The instrument at exactly ``(name, labels)``, or None."""
        return self._instruments.get((name, _label_key(labels)))

    def with_name(self, name):
        """All instruments sharing ``name`` (any labels), sorted."""
        return [inst for inst in self.instruments() if inst.name == name]

    def with_prefix(self, prefix):
        """All instruments whose name starts with ``prefix``, sorted."""
        return [inst for inst in self.instruments()
                if inst.name.startswith(prefix)]

    def total(self, name):
        """Sum of a counter's value across all label sets."""
        return sum(inst.value for inst in self.with_name(name)
                   if isinstance(inst, Counter))

    def rows(self):
        """Flat export rows, one per instrument (for JSONL)."""
        out = []
        for inst in self.instruments():
            row = {"metric": inst.name, "type": inst.kind,
                   "labels": dict(inst.labels)}
            row.update(inst.data())
            out.append(row)
        return out


# ---------------------------------------------------------------------------
# Merging registries from independent simulations (repro.fleetd)
#
# Registries from different shards measure different universes whose
# label sets collide (every shard has a ``link=...->server``), so a
# lossless merge works on export rows and disambiguates with an extra
# label rather than summing instruments blindly.  The output order is
# a pure function of the input rows — merged output is byte-identical
# however the sources were produced.


def merge_rows(sources, label="shard"):
    """Merge metric export rows from several independent registries.

    ``sources`` is an iterable of ``(key, rows)`` pairs — e.g.
    ``(shard_index, registry.rows())`` per shard.  Every row gains
    ``label=key`` in its label set, and the result is sorted by
    ``(metric, labels)`` so the merge is deterministic regardless of
    source arrival order.  Rows are copied; the inputs are untouched.
    """
    merged = []
    for key, rows in sources:
        for row in rows:
            row = dict(row)
            labels = dict(row["labels"])
            labels[label] = key
            row["labels"] = labels
            merged.append(row)
    merged.sort(key=lambda row: (row["metric"],
                                 sorted([(str(k), str(v))
                                         for k, v in row["labels"].items()])))
    return merged


def sum_counters(rows):
    """``{metric: total}`` over counter rows from :func:`merge_rows`.

    Counters are the only instrument whose cross-registry sum is
    meaningful (gauges and histograms would need their envelopes and
    buckets merged with care); this is the aggregate the fleet report
    prints.
    """
    totals = {}
    for row in rows:
        if row.get("type") == "counter":
            totals[row["metric"]] = totals.get(row["metric"], 0) \
                + row["value"]
    return totals
