"""The determinism linter: AST rules over the simulation source.

The contract the rules encode (see DESIGN.md, "Determinism contract"):

* **DET001** — no wall-clock reads.  ``time.time``, ``time.monotonic``,
  ``time.perf_counter`` (and their ``_ns`` variants), ``datetime.now``,
  ``datetime.utcnow``, ``datetime.today``, ``date.today``.  Simulation
  time is ``sim.now``; no file under ``src/repro`` reads a wall clock
  (timing lives in ``perfbench/``, outside the package).
* **DET002** — no unmanaged randomness.  Module-level ``random.*``
  draws use the process-global generator; bare ``random.Random(...)``
  invents a private sequence invisible to the seed.  Stochastic code
  draws from ``sim.rand`` named streams; pre-simulation seed
  derivation goes through :func:`repro.sim.rand.derive_rng` (whose
  home, ``sim/rand.py``, is the one allowlisted construction site).
* **DET003** — no iteration over hash-ordered collections (``set``
  literals/calls/comprehensions, set algebra, ``dict`` views) that
  feeds the scheduler (``sim.process``/``timeout``/``schedule``).
  Set order follows ``PYTHONHASHSEED``; two identical runs would
  schedule in different orders.  Sort first.
* **DET004** — no ``==``/``!=`` against simulation timestamps
  (``.now``).  Float equality on derived times is a latent
  platform/optimization hazard; compare with tolerances or ordering.
* **SIM001** — only the scheduler layer (``sim/queue.py`` and the
  kernel files) touches the event queue (``heapq``, ``_queue``, the
  raw ``_push`` entry-tuple hook).  Everything else schedules through
  the kernel API, which is what makes the dispatch order auditable.
* **OBS001** — trace-event kinds must be literal members of the closed
  taxonomy in :mod:`repro.obs.events`, so the linter (not just a
  runtime raise deep in a scenario) catches typos.

Suppression: an inline ``repro: allow[RULE] reason`` comment on the
offending line (or a comment-only line directly above) suppresses the
finding; the reason is mandatory — a reasonless pragma is itself an
error (**PRG001**) and cannot be suppressed.  Per-rule file allowlists
(:data:`FILE_ALLOWLISTS`) exempt the sanctioned homes of each
mechanism.
"""

import ast
import json
import os
import re
from dataclasses import dataclass

#: Rule id -> one-line description (shown in ``repro lint --rules``).
RULES = {
    "DET001": "wall-clock read; simulation code must use sim.now",
    "DET002": "unmanaged randomness; draw from sim.rand named streams "
              "(or derive_rng for pre-simulation seeds)",
    "DET003": "iteration over a hash-ordered collection feeds the "
              "scheduler; sort before scheduling",
    "DET004": "==/!= on a simulation timestamp; compare with ordering "
              "or an explicit tolerance",
    "SIM001": "event-queue access outside the scheduler layer "
              "(sim/queue.py + kernel files)",
    "OBS001": "trace-event kind outside the closed taxonomy",
    "PRG001": "malformed suppression pragma (unknown rule or missing "
              "reason)",
}

#: Rule id -> path suffixes (package-relative, ``/``-separated) where
#: the rule is structurally satisfied and findings are suppressed.
FILE_ALLOWLISTS = {
    # The one sanctioned random.Random construction site: the named
    # stream family and derive_rng live here.
    "DET002": ("sim/rand.py",),
    # The scheduler layer, file by file:
    #   sim/queue.py  — the queue itself (heapq is its storage
    #                   primitive);
    #   sim/kernel.py — owns the queue object and the run loop,
    #                   including the inlined fast loop;
    #   sim/events.py — Event.succeed and Timeout.__init__ push the
    #                   identical (time, priority, seq, event) tuple
    #                   the kernel would, through the scheduler's bound
    #                   _push, inlined as the two hottest trigger
    #                   sites;
    #   sim/process.py — Process bootstrap and interrupt kicks push
    #                   the same tuple shape for the same reason.
    "SIM001": ("sim/queue.py", "sim/kernel.py", "sim/events.py",
               "sim/process.py"),
}

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\[([^\]]*)\]\s*(.*)$")

_WALL_CLOCK_ATTRS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: Functions of the random module that draw from the process-global
#: generator when called at module level.
_GLOBAL_RANDOM_FNS = {
    "random", "seed", "randint", "randrange", "uniform", "choice",
    "choices", "sample", "shuffle", "expovariate", "gauss",
    "lognormvariate", "normalvariate", "betavariate", "triangular",
    "vonmisesvariate", "paretovariate", "weibullvariate",
    "gammavariate", "getrandbits", "randbytes",
}

#: Constructors of the random module that mint private generators.
_RANDOM_CONSTRUCTORS = {"Random", "SystemRandom"}

#: Method names whose call inside a hash-ordered loop body counts as
#: feeding the scheduler: starting a process, sleeping, settling an
#: event (its callbacks are pushed at once) and the kernel internals.
_SCHEDULING_CALLS = {
    "process", "schedule", "sleep", "succeed", "fail", "_schedule_event",
    "_call_soon",
}

#: Event classes whose construction pushes or arms a queue entry, as the
#: callback chains spell it (``Timeout(sim, delay)``, ``At(sim, when)``,
#: a born-triggered ``Event``).
_SCHEDULING_CLASSES = {"Timeout", "At", "Event"}

#: Dict/set methods returning hash-ordered or insertion-ordered views.
_VIEW_METHODS = {
    "keys", "values", "items", "union", "intersection", "difference",
    "symmetric_difference",
}


@dataclass
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self):
        return "%s:%d:%d: %s %s" % (self.path, self.line, self.col,
                                    self.rule, self.message)

    def to_dict(self):
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message}


# ---------------------------------------------------------------------------
# Pragma handling


def _parse_pragmas(source, path):
    """Scan for suppression pragmas.

    Returns ``(covered, errors)`` where ``covered`` maps a line number
    to the frozenset of rule ids suppressed there, and ``errors`` are
    PRG001 findings for malformed pragmas.  A pragma on a code line
    covers that line; a pragma on a comment-only line covers the next
    line carrying code (so multi-line explanations can sit above the
    construct they excuse).
    """
    lines = source.splitlines()
    covered = {}
    errors = []

    def code_line_after(index):
        for later in range(index + 1, len(lines)):
            stripped = lines[later].strip()
            if stripped and not stripped.startswith("#"):
                return later + 1
        return None

    for index, text in enumerate(lines):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        lineno = index + 1
        rules = [r.strip() for r in match.group(1).split(",") if r.strip()]
        reason = match.group(2).strip()
        bad = [r for r in rules if r not in RULES or r == "PRG001"]
        if not rules or bad:
            errors.append(Finding(
                "PRG001", path, lineno, text.index("#"),
                "pragma names %s; allow[...] needs known rule ids"
                % (", ".join(repr(b) for b in bad) or "no rules")))
            continue
        if not reason:
            errors.append(Finding(
                "PRG001", path, lineno, text.index("#"),
                "pragma for %s carries no reason; suppressions must "
                "say why" % ", ".join(rules)))
            continue
        target = lineno
        if text.strip().startswith("#"):
            target = code_line_after(index)
            if target is None:
                errors.append(Finding(
                    "PRG001", path, lineno, text.index("#"),
                    "pragma covers no code line"))
                continue
        covered[target] = covered.get(target, frozenset()) | frozenset(rules)
    return covered, errors


# ---------------------------------------------------------------------------
# The AST visitor


def _dotted(node):
    """``a.b.c`` -> ["a", "b", "c"]; None for non-name chains."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _is_hash_ordered(node):
    """Does evaluating ``node`` yield a hash/insertion-ordered view?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in _VIEW_METHODS:
            return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)):
        return _is_hash_ordered(node.left) or _is_hash_ordered(node.right)
    return False


def _body_schedules(body):
    """Does any statement in ``body`` call into the scheduler?"""
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) \
                        and func.attr in _SCHEDULING_CALLS:
                    return True
                if isinstance(func, ast.Name) \
                        and func.id in _SCHEDULING_CLASSES:
                    return True
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, path, event_kinds):
        self.path = path
        self.event_kinds = event_kinds
        self.findings = []
        # local name -> canonical module, for `import time as t`.
        self._module_aliases = {}
        # local name -> (module, attr), for `from time import time`.
        self._from_imports = {}

    def _flag(self, rule, node, message):
        self.findings.append(Finding(
            rule, self.path, node.lineno, node.col_offset, message))

    # -- imports ---------------------------------------------------------

    def visit_Import(self, node):
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in ("time", "datetime", "random"):
                self._module_aliases[alias.asname or root] = root
            if root == "heapq":
                self._flag("SIM001", node,
                           "import heapq: heap storage belongs to the "
                           "scheduler layer (sim/queue.py)")
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        module = (node.module or "").split(".")[0]
        if module == "heapq":
            self._flag("SIM001", node,
                       "import from heapq: heap storage belongs to the "
                       "scheduler layer (sim/queue.py)")
        if module in ("time", "datetime", "random"):
            for alias in node.names:
                self._from_imports[alias.asname or alias.name] = \
                    (module, alias.name)
        self.generic_visit(node)

    # -- calls -----------------------------------------------------------

    def _call_target(self, node):
        """(module_hint, attr) for the call, best effort."""
        func = node.func
        if isinstance(func, ast.Name):
            origin = self._from_imports.get(func.id)
            if origin is not None:
                return origin
            return (None, func.id)
        chain = _dotted(func)
        if chain and len(chain) >= 2:
            head = self._module_aliases.get(chain[0], chain[-2])
            return (head, chain[-1])
        if isinstance(func, ast.Attribute):
            return (None, func.attr)
        return (None, None)

    def visit_Call(self, node):
        module, attr = self._call_target(node)
        if (module, attr) in _WALL_CLOCK_ATTRS:
            self._flag("DET001", node,
                       "%s.%s() reads the wall clock; use sim.now"
                       % (module, attr))
        if module == "random":
            if attr in _RANDOM_CONSTRUCTORS:
                self._flag("DET002", node,
                           "random.%s() mints an unmanaged generator; "
                           "use sim.rand streams or derive_rng" % attr)
            elif attr in _GLOBAL_RANDOM_FNS:
                self._flag("DET002", node,
                           "random.%s() draws from the process-global "
                           "generator; use sim.rand streams" % attr)
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "event" and node.args:
            self._check_event_kind(node)
        self.generic_visit(node)

    def _check_event_kind(self, node):
        first = node.args[0]
        candidates = []
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            candidates = [first.value]
        elif isinstance(first, ast.IfExp) \
                and isinstance(first.body, ast.Constant) \
                and isinstance(first.orelse, ast.Constant):
            candidates = [first.body.value, first.orelse.value]
        else:
            self._flag("OBS001", node,
                       "event kind is not a string literal; the closed "
                       "taxonomy cannot be checked statically")
            return
        for kind in candidates:
            if kind not in self.event_kinds:
                self._flag("OBS001", node,
                           "event kind %r is not in the closed taxonomy "
                           "(repro.obs.events.EVENT_KINDS)" % kind)

    # -- hash-order hazards ---------------------------------------------

    def visit_For(self, node):
        if _is_hash_ordered(node.iter) and _body_schedules(node.body):
            self._flag("DET003", node,
                       "loop over a hash-ordered collection schedules "
                       "events; iterate sorted(...) instead")
        self.generic_visit(node)

    # -- timestamp equality ---------------------------------------------

    def visit_Compare(self, node):
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for operand in [node.left] + list(node.comparators):
                if (isinstance(operand, ast.Attribute)
                        and operand.attr == "now") \
                        or (isinstance(operand, ast.Name)
                            and operand.id == "now"):
                    self._flag("DET004", node,
                               "==/!= against a simulation timestamp; "
                               "compare with ordering or a tolerance")
                    break
        self.generic_visit(node)

    # -- heap access -----------------------------------------------------

    def visit_Attribute(self, node):
        if node.attr in ("_queue", "_push"):
            self._flag("SIM001", node,
                       "direct event-queue (%s) access outside the "
                       "scheduler layer" % node.attr)
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# Engine


def _relative_path(path, root):
    if root is None:
        return path
    try:
        rel = os.path.relpath(path, root)
    except ValueError:
        return path
    return rel.replace(os.sep, "/")


def _allowlisted(rule, rel_path):
    for suffix in FILE_ALLOWLISTS.get(rule, ()):
        if rel_path.endswith(suffix):
            return True
    return False


def lint_source(source, path, root=None):
    """Lint one unit of source text; returns surviving findings.

    ``root`` anchors the package-relative path matched against
    :data:`FILE_ALLOWLISTS`; event kinds are checked against the
    closed taxonomy.
    """
    from repro.obs.events import EVENT_KINDS
    rel = _relative_path(path, root)
    covered, findings = _parse_pragmas(source, path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        findings.append(Finding(
            "PRG001", path, exc.lineno or 1, exc.offset or 0,
            "file does not parse: %s" % exc.msg))
        return findings
    visitor = _Visitor(path, EVENT_KINDS)
    visitor.visit(tree)
    for finding in visitor.findings:
        if _allowlisted(finding.rule, rel):
            continue
        if finding.rule in covered.get(finding.line, ()):
            continue
        findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_paths(paths, root=None):
    """Lint files and directory trees; returns combined findings."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, _dirnames, filenames in os.walk(path):
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        files.append(os.path.join(dirpath, name))
        else:
            files.append(path)
    findings = []
    for path in sorted(files):
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        findings.extend(lint_source(source, path, root=root))
    return findings


def package_root():
    """The installed ``repro`` package directory (…/src/repro)."""
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__))


def lint_package():
    """Lint the whole simulation package against the contract."""
    root = package_root()
    return lint_paths([root], root=root)


def format_text(findings):
    if not findings:
        return "determinism lint: clean"
    lines = [finding.format() for finding in findings]
    lines.append("determinism lint: %d finding(s)" % len(findings))
    return "\n".join(lines)


def format_json(findings):
    return json.dumps([finding.to_dict() for finding in findings],
                      indent=2, sort_keys=True)
