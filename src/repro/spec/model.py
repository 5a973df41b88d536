"""The declarative scenario model.

A :class:`ScenarioSpec` is a frozen, hashable value describing one
experiment: clients (count, cache size, hoard profile), volumes
(mount, tree), network (profile, loss, outages, fault plan), workload
(script of ops or a stochastic mix), and duration.  Specs validate
strictly (:meth:`ScenarioSpec.validate` collects *every* problem, not
just the first) and round-trip through dicts and JSON without loss:
``ScenarioSpec.from_json(spec.to_json()) == spec``.

Nothing in this module runs a simulation; compilation to the live
testbed/fleet machinery lives in :mod:`repro.spec.compile`.
"""

import json
import re
from dataclasses import dataclass, field, fields, replace

from repro.faults.plan import FaultPlan
from repro.net.profiles import profile_by_name
from repro.spec.fleet import FleetConfig
from repro.spec.seeds import SEED_KINDS
from repro.trace.segments import SEGMENT_SPECS
from repro.venus.venus import VenusConfig

_NAME_RE = re.compile(r"^[a-z][a-z0-9-]*$")

#: Scenario kinds: "testbed" runs one instrumented client against one
#: server; "fleet" runs a population study (optionally sharded).
KINDS = ("testbed", "fleet")

#: Families per kind.  "script" interprets workload.script on a single
#: testbed; the others are measured workload generators in
#: :mod:`repro.spec.families` / :mod:`repro.spec.fleet`.
TESTBED_FAMILIES = ("script", "conflict-storm", "doc-archive", "replay")
FLEET_FAMILIES = ("figure9", "commuter")

#: Script op vocabulary: op -> (required fields, optional fields).
#: "ignore_errors" is accepted by every op.
OPS = {
    "connect": ((), ()),
    "sleep": (("seconds",), ()),
    "write": (("path", "size"), ("tag",)),
    "read": (("path",), ()),
    "stat": (("path",), ()),
    "readdir": (("path",), ()),
    "evict": (("path",), ()),
    "hoard": (("path", "priority"), ("children",)),
    "walk": ((), ()),
}

#: Tunable parameters each non-script family accepts (values are
#: checked to be non-negative numbers, except ``segment``, which names
#: a replay segment; semantics live in the family's config dataclass
#: in repro.spec.families).
FAMILY_PARAMS = {
    "script": (),
    "figure9": (),
    "conflict-storm": ("writers", "files", "file_size", "rounds",
                       "round_minutes", "writes_per_round",
                       "keep_mine_every", "drain_seconds"),
    "doc-archive": ("containers", "docs_per_container", "doc_size",
                    "hoarded_containers", "hoard_priority", "reads",
                    "think_seconds", "annotate_every", "note_size",
                    "locality", "commute_at", "weak_bps",
                    "weak_minutes"),
    "replay": ("segment", "think_threshold", "warm_seconds", "records"),
    "commuter": ("work_start", "work_end", "commute_minutes",
                 "off_hours_activity", "shared_volumes",
                 "system_volumes", "extra_volumes", "files_per_volume",
                 "file_size", "private_writes_per_day",
                 "shared_writes_per_day", "reads_per_day",
                 "roams_per_day", "evictions_per_day",
                 "system_updates_per_day", "desktop_outages_per_day",
                 "outage_minutes", "flaky_reconnect_prob"),
}


class SpecError(ValueError):
    """A scenario spec failed validation; ``errors`` lists everything."""

    def __init__(self, name, errors):
        self.name = name
        self.errors = tuple(errors)
        lines = "\n".join("  - %s" % error for error in self.errors)
        super().__init__("invalid spec %r (%d error%s):\n%s" % (
            name, len(self.errors),
            "" if len(self.errors) == 1 else "s", lines))


def _pairs(value):
    """Canonicalise a mapping/iterable-of-pairs to a sorted tuple."""
    if isinstance(value, dict):
        items = value.items()
    else:
        items = [tuple(item) for item in value]
    return tuple(sorted((str(key), val) for key, val in items))


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class OpStep:
    """One step of a scripted workload session."""

    op: str
    path: str = None
    size: int = None
    tag: tuple = None
    seconds: float = None
    priority: int = None
    children: bool = False
    ignore_errors: bool = False

    def __post_init__(self):
        if isinstance(self.tag, list):
            object.__setattr__(self, "tag", tuple(self.tag))

    def validate(self, where):
        errors = []
        if self.op not in OPS:
            errors.append("%s: unknown op %r (choose from %s)"
                          % (where, self.op, ", ".join(sorted(OPS))))
            return errors
        required, optional = OPS[self.op]
        allowed = set(required) | set(optional)
        for name in required:
            if getattr(self, name) is None:
                errors.append("%s: op %r requires %r"
                              % (where, self.op, name))
        for spec_field in fields(self):
            name = spec_field.name
            if name in ("op", "ignore_errors") or name in allowed:
                continue
            if getattr(self, name) not in (None, False):
                errors.append("%s: op %r does not take %r"
                              % (where, self.op, name))
        if self.seconds is not None and (
                not _number(self.seconds) or self.seconds < 0):
            errors.append("%s: seconds must be a non-negative number"
                          % where)
        if self.size is not None and (
                not isinstance(self.size, int) or self.size < 0):
            errors.append("%s: size must be a non-negative int" % where)
        if self.priority is not None and (
                not isinstance(self.priority, int) or self.priority <= 0):
            errors.append("%s: priority must be a positive int" % where)
        if self.path is not None and (
                not isinstance(self.path, str)
                or not self.path.startswith("/")):
            errors.append("%s: path must be absolute" % where)
        return errors

    def to_dict(self):
        data = {"op": self.op}
        for spec_field in fields(self):
            name = spec_field.name
            value = getattr(self, name)
            if name != "op" and value not in (None, False):
                data[name] = list(value) if isinstance(value, tuple) else value
        return data

    @classmethod
    def from_dict(cls, data, where="op"):
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(where, ["%s: unknown key(s) %s"
                                    % (where, ", ".join(unknown))])
        return cls(**data)


@dataclass(frozen=True)
class Outage:
    """A single scheduled link outage (arms ``link.outage``)."""

    after: float
    duration: float

    def validate(self, where):
        errors = []
        if not _number(self.after) or self.after < 0:
            errors.append("%s: after must be a non-negative number" % where)
        if not _number(self.duration) or self.duration <= 0:
            errors.append("%s: duration must be a positive number" % where)
        return errors


@dataclass(frozen=True)
class NetworkSpec:
    """Connectivity: a named profile plus outages and a fault plan.

    ``faults`` holds :class:`repro.faults.plan.FaultPlan` rows in their
    ``to_dicts`` form so specs stay plain data; the compiler rebuilds
    the plan with ``FaultPlan.from_dicts``.  Rows are canonicalised to
    sorted key/value pair tuples so the whole spec stays hashable;
    :meth:`fault_rows` gives them back as the dicts the fault plan
    machinery takes.
    """

    profile: str = "Modem"
    loss_rate: float = None
    outages: tuple = ()
    faults: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "outages", tuple(
            outage if isinstance(outage, Outage) else Outage(**outage)
            for outage in self.outages))
        object.__setattr__(self, "faults", tuple(
            _pairs(row) for row in self.faults))

    def fault_rows(self):
        """The fault plan as ``FaultPlan.from_dicts`` rows."""
        return [dict(row) for row in self.faults]

    def validate(self, where="network"):
        errors = []
        try:
            profile_by_name(self.profile)
        except (KeyError, TypeError):
            errors.append("%s: unknown profile %r" % (where, self.profile))
        if self.loss_rate is not None and (
                not _number(self.loss_rate)
                or not 0.0 <= self.loss_rate <= 1.0):
            errors.append("%s: loss_rate must be in [0, 1]" % where)
        for index, outage in enumerate(self.outages):
            errors.extend(outage.validate("%s.outages[%d]" % (where, index)))
        if self.faults:
            try:
                FaultPlan.from_dicts(self.fault_rows())
            except (ValueError, TypeError, KeyError) as exc:
                errors.append("%s.faults: %s" % (where, exc))
        return errors

    def to_dict(self):
        data = {"profile": self.profile}
        if self.loss_rate is not None:
            data["loss_rate"] = self.loss_rate
        if self.outages:
            data["outages"] = [{"after": outage.after,
                                "duration": outage.duration}
                               for outage in self.outages]
        if self.faults:
            data["faults"] = self.fault_rows()
        return data


@dataclass(frozen=True)
class VolumeSpec:
    """A server volume: mount point plus its initial tree.

    ``tree`` is a tuple of ``(path, kind, size)`` triples with kind
    ``"dir"`` or ``"file"`` — the serialisable form of the dict
    :func:`repro.spec.testbed.populate_volume` takes.
    """

    mount: str
    tree: tuple = ()
    warm: bool = True

    def __post_init__(self):
        object.__setattr__(self, "tree", tuple(
            tuple(entry) for entry in self.tree))

    def validate(self, where="volume"):
        errors = []
        if not isinstance(self.mount, str) or not self.mount.startswith("/"):
            errors.append("%s: mount must be an absolute path" % where)
            return errors
        for entry in self.tree:
            if len(entry) != 3:
                errors.append("%s: tree entries are (path, kind, size),"
                              " got %r" % (where, (entry,)))
                continue
            path, kind, size = entry
            if not isinstance(path, str) or not path.startswith(
                    self.mount + "/"):
                errors.append("%s: tree path %r must live under %s/"
                              % (where, path, self.mount))
            if kind not in ("dir", "file"):
                errors.append("%s: tree kind for %r must be 'dir' or"
                              " 'file'" % (where, path))
            if not isinstance(size, int) or size < 0 or (
                    kind == "dir" and size != 0):
                errors.append("%s: bad size %r for %r" % (where, size, path))
        return errors

    def tree_dict(self):
        """The ``populate_volume`` form: path -> (kind, size)."""
        return {path: (kind, size) for path, kind, size in self.tree}

    def to_dict(self):
        data = {"mount": self.mount,
                "tree": [list(entry) for entry in self.tree]}
        if not self.warm:
            data["warm"] = False
        return data


@dataclass(frozen=True)
class ClientSpec:
    """The client population.

    Testbed scenarios use ``count`` (currently always 1 instrumented
    client) plus optional cache sizing and a hoard profile applied
    after the volumes exist; fleet scenarios use the desktop/laptop
    split.  ``hoard`` entries are ``(path, priority, children)``.
    """

    count: int = 1
    desktops: int = 0
    laptops: int = 0
    cache_capacity: int = None
    hoard: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "hoard", tuple(
            tuple(entry) for entry in self.hoard))

    def validate(self, kind, where="clients"):
        errors = []
        if kind == "testbed":
            if self.count != 1:
                errors.append("%s: testbed scenarios take exactly one"
                              " scripted client (count=1)" % where)
            if self.desktops or self.laptops:
                errors.append("%s: desktops/laptops are fleet-only" % where)
        else:
            if self.desktops + self.laptops < 1:
                errors.append("%s: fleet scenarios need desktops +"
                              " laptops >= 1" % where)
            if self.cache_capacity is not None or self.hoard:
                errors.append("%s: cache_capacity/hoard are testbed-only"
                              % where)
        if self.cache_capacity is not None and (
                not isinstance(self.cache_capacity, int)
                or self.cache_capacity <= 0):
            errors.append("%s: cache_capacity must be a positive int" % where)
        for entry in self.hoard:
            if (len(entry) != 3 or not isinstance(entry[0], str)
                    or not entry[0].startswith("/")
                    or not isinstance(entry[1], int) or entry[1] <= 0
                    or not isinstance(entry[2], bool)):
                errors.append("%s: hoard entries are (path, priority,"
                              " children), got %r" % (where, (entry,)))
        return errors

    def to_dict(self):
        data = {}
        if self.count != 1:
            data["count"] = self.count
        if self.desktops:
            data["desktops"] = self.desktops
        if self.laptops:
            data["laptops"] = self.laptops
        if self.cache_capacity is not None:
            data["cache_capacity"] = self.cache_capacity
        if self.hoard:
            data["hoard"] = [list(entry) for entry in self.hoard]
        return data


@dataclass(frozen=True)
class WorkloadSpec:
    """What the clients do: a script of ops, or a stochastic mix.

    ``mix`` overrides rate fields of the fleet family's config (e.g.
    ``reads_per_day``) as a sorted tuple of ``(name, value)`` pairs.
    """

    script: tuple = ()
    mix: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "script", tuple(
            step if isinstance(step, OpStep) else OpStep.from_dict(step)
            for step in self.script))
        object.__setattr__(self, "mix", _pairs(self.mix))

    def validate(self, where="workload"):
        errors = []
        for index, step in enumerate(self.script):
            errors.extend(step.validate("%s.script[%d]" % (where, index)))
        for name, value in self.mix:
            if not _number(value) or value < 0:
                errors.append("%s.mix: %s must be a non-negative number"
                              % (where, name))
        return errors

    def mix_dict(self):
        return dict(self.mix)

    def to_dict(self):
        data = {}
        if self.script:
            data["script"] = [step.to_dict() for step in self.script]
        if self.mix:
            data["mix"] = dict(self.mix)
        return data


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, runnable experiment description."""

    name: str
    kind: str
    family: str
    seed_kind: str = "spec"
    title: str = ""
    duration: float = None
    shards: int = None
    venus: tuple = ()
    network: NetworkSpec = field(default_factory=NetworkSpec)
    volumes: tuple = ()
    clients: ClientSpec = field(default_factory=ClientSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    params: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "venus", _pairs(self.venus))
        object.__setattr__(self, "params", _pairs(self.params))
        if isinstance(self.network, dict):
            object.__setattr__(self, "network", NetworkSpec(**self.network))
        object.__setattr__(self, "volumes", tuple(
            volume if isinstance(volume, VolumeSpec) else VolumeSpec(**volume)
            for volume in self.volumes))
        if isinstance(self.clients, dict):
            object.__setattr__(self, "clients", ClientSpec(**self.clients))
        if isinstance(self.workload, dict):
            object.__setattr__(self, "workload",
                               WorkloadSpec(**self.workload))

    # -- accessors ---------------------------------------------------

    def venus_dict(self):
        return dict(self.venus)

    def params_dict(self):
        return dict(self.params)

    def with_params(self, **overrides):
        """A copy with ``params`` entries merged in (family knobs)."""
        merged = dict(self.params)
        merged.update(overrides)
        return replace(self, params=_pairs(merged))

    # -- validation --------------------------------------------------

    def validate(self):
        """Return a list of every problem with this spec (empty = ok)."""
        errors = []
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            errors.append("name: must match %s" % _NAME_RE.pattern)
        if self.kind not in KINDS:
            errors.append("kind: %r is not one of %s"
                          % (self.kind, ", ".join(KINDS)))
            return errors
        families = (TESTBED_FAMILIES if self.kind == "testbed"
                    else FLEET_FAMILIES)
        if self.family not in families:
            errors.append("family: %r is not a %s family (choose from %s)"
                          % (self.family, self.kind, ", ".join(families)))
            return errors
        if self.seed_kind not in SEED_KINDS:
            errors.append("seed_kind: %r is not one of %s"
                          % (self.seed_kind, ", ".join(SEED_KINDS)))
        if self.kind == "fleet":
            if not _number(self.duration) or self.duration <= 0:
                errors.append("duration: fleet scenarios need a positive"
                              " duration in days")
            if self.shards is not None and (
                    not isinstance(self.shards, int) or self.shards < 2):
                errors.append("shards: must be an int >= 2 (or omitted)")
            if self.workload.script:
                errors.append("workload.script: fleet scenarios are"
                              " mix-driven, not scripted")
            if self.venus or self.volumes:
                errors.append("venus/volumes: fleet scenarios derive both"
                              " from the family config")
        else:
            if self.shards is not None:
                errors.append("shards: testbed scenarios cannot shard")
            if self.duration is not None and self.family != "script":
                errors.append("duration: the %s family's workload fixes"
                              " its own duration" % self.family)
            elif self.duration is not None and (
                    not _number(self.duration) or self.duration <= 0):
                errors.append("duration: must be a positive number of"
                              " seconds (or omitted)")
            if self.workload.mix:
                errors.append("workload.mix: rate mixes are fleet-only")
        if self.network != NetworkSpec() and (
                self.kind == "fleet" or self.family == "conflict-storm"):
            errors.append("network: the %s family builds its own links"
                          % self.family)
        if self.family == "conflict-storm":
            for name, value in (("venus", self.venus),
                                ("volumes", self.volumes),
                                ("clients.hoard", self.clients.hoard),
                                ("clients.cache_capacity",
                                 self.clients.cache_capacity)):
                if value not in (None, ()):
                    errors.append("%s: the conflict-storm family builds its"
                                  " own writers and volume" % name)
        if self.family == "script" and not self.workload.script:
            errors.append("workload.script: the script family needs at"
                          " least one op")
        if self.family != "script" and self.workload.script:
            errors.append("workload.script: only the script family takes"
                          " a script")
        errors.extend(self._validate_venus())
        errors.extend(self.network.validate())
        mounts = set()
        for index, volume in enumerate(self.volumes):
            where = "volumes[%d]" % index
            errors.extend(volume.validate(where))
            if volume.mount in mounts:
                errors.append("%s: duplicate mount %r" % (where, volume.mount))
            mounts.add(volume.mount)
        errors.extend(self.clients.validate(self.kind))
        errors.extend(self.workload.validate())
        errors.extend(self._validate_params())
        return errors

    def _validate_venus(self):
        errors = []
        if not self.venus:
            return errors
        known = {config_field.name for config_field in fields(VenusConfig)}
        for name, value in self.venus:
            if name not in known:
                errors.append("venus: %r is not a VenusConfig field" % name)
            elif not isinstance(value, (int, float, bool)):
                errors.append("venus: %s must be a number or bool" % name)
        return errors

    def _validate_params(self):
        errors = []
        allowed = FAMILY_PARAMS[self.family]
        for name, value in self.params:
            if name not in allowed:
                errors.append("params: %r is not a %s parameter"
                              % (name, self.family))
            elif name == "segment":
                if not isinstance(value, str) or value not in SEGMENT_SPECS:
                    errors.append("params: segment %r is not one of %s"
                                  % (value, ", ".join(SEGMENT_SPECS)))
            elif not _number(value) or value < 0:
                errors.append("params: %s must be a non-negative number"
                              % name)
        if self.workload.mix and self.family != "figure9":
            known = set(allowed)
            for name, _ in self.workload.mix:
                if name not in known:
                    errors.append("workload.mix: %r is not a %s rate"
                                  % (name, self.family))
        elif self.workload.mix:
            fixed = {"desktops", "laptops", "days", "seed", "name_prefix"}
            known = {config_field.name
                     for config_field in fields(FleetConfig)} - fixed
            for name, _ in self.workload.mix:
                if name not in known:
                    errors.append("workload.mix: %r is not a FleetConfig"
                                  " rate" % name)
        return errors

    def check(self):
        """Raise :class:`SpecError` if invalid; return self otherwise."""
        errors = self.validate()
        if errors:
            raise SpecError(self.name, errors)
        return self

    # -- serialisation -----------------------------------------------

    def to_dict(self):
        data = {"name": self.name, "kind": self.kind, "family": self.family,
                "seed_kind": self.seed_kind}
        if self.title:
            data["title"] = self.title
        if self.duration is not None:
            data["duration"] = self.duration
        if self.shards is not None:
            data["shards"] = self.shards
        if self.venus:
            data["venus"] = dict(self.venus)
        network = self.network.to_dict()
        if network != {"profile": "Modem"}:
            data["network"] = network
        if self.volumes:
            data["volumes"] = [volume.to_dict() for volume in self.volumes]
        clients = self.clients.to_dict()
        if clients:
            data["clients"] = clients
        workload = self.workload.to_dict()
        if workload:
            data["workload"] = workload
        if self.params:
            data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise SpecError("?", ["spec must be a mapping, got %s"
                                  % type(data).__name__])
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(data) - known)
        name = data.get("name", "?")
        if unknown:
            raise SpecError(name, ["unknown key(s): %s" % ", ".join(unknown)])
        try:
            spec = cls(**data)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, SpecError):
                raise
            raise SpecError(name, [str(exc)]) from exc
        return spec.check()

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError("?", ["not valid JSON: %s" % exc]) from exc
        return cls.from_dict(data)
