"""Every setting earns its keep: a value no caller sets is a constant.

A *setting* is a defaulted parameter of a ``def`` under ``src/repro``
or a field of ``VenusConfig``.  A *caller* is a call in ``src/`` or
``perfbench/`` (tests and examples only exercise what callers use).  A
call sets a parameter when it names it by keyword or reaches its
position; ``*args`` and ``**kwargs`` spreads set nothing.  Calls are
matched by the bare or dotted name of what they call, and a class's
``__init__`` by the class name (or ``super().__init__`` in a
subclass).  Spec overrides reach ``VenusConfig`` as dicts keyed by
field name, so a field is also set by its name as a string constant
or a keyword anywhere.

A setting no caller sets fails here unless :data:`ALLOWED` names it
with a one-line reason; an entry whose subject is gone, or is set
after all, fails too, so the list only shrinks.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]

_SEAM_RUN = "test seam: invariant, fault-plan and schedule tests hook run_spec"
_SEAM_USER = "test seam: advice tests and examples script the user with it"
_FAMILY = "dispatch table: run_spec calls the family runner it looks up"
_GOLDEN = "mod: string: the golden ledger resolves and calls it by name"
_KNOBS = "dispatch table: its Ablation's @fast knobs, as cell(value, **knobs)"
_LINK = "Network.add_link(**parameters) passes it from a profile or override"
_CALLBACK = "an event callback that is also called bare"
_STREAM = ("perfbench/ passes run_checkpointed(stream=True); out of scope "
           "until ROADMAP 2(a)/(b)")

#: ``path:Qualified.name(param=)`` → why it stays settable with no
#: caller in ``src/`` or ``perfbench/`` setting it.
ALLOWED = {
    "repro/analysis/divergence.py:"
    "_install_decoy_stream.perturbed_init(seed=)":
        "stands in for RandomStreams.__init__ and keeps its signature",
    "repro/analysis/divergence.py:compare_timelines(context=)":
        "test seam: tests/sim/differential.py's --context flag sets it",
    "repro/analysis/golden.py:probe(workers=)":
        "dispatch table: the ledger calls Table.facts(names, workers)",
    "repro/bench/ablations.py:_chunk_cell(backlog_files=)": _KNOBS,
    "repro/bench/ablations.py:_false_sharing_cell(total_files=)": _KNOBS,
    "repro/bench/ablations.py:_keepalive_cell(idle_hours=)": _KNOBS,
    "repro/ckpt/runner.py:extend_checkpointed(stream=)": _STREAM,
    "repro/ckpt/runner.py:run_shard_days(stream=)": _STREAM,
    "repro/cli.py:main(argv=)":
        "test seam: CLI tests run main() in-process with an argv list",
    "repro/fleetd/executor.py:run_shard(instrument=)":
        "run_sharded passes it to map_shards(run_shard, ..., *args)",
    "repro/fleetd/verify.py:verify_sharded(workers=)":
        "test seam: tests size the pool verify runs when given no report",
    "repro/net/link.py:Link.__init__(bits_per_byte=)": _LINK,
    "repro/net/link.py:Link.__init__(header_savings=)": _LINK,
    "repro/net/link.py:Link.__init__(latency=)": _LINK,
    "repro/net/link.py:Link.__init__(loss_rate=)": _LINK,
    "repro/net/link.py:Link.__init__(rng=)": _LINK,
    "repro/rpc2/tcp.py:_Completion.end_done(_event=)": _CALLBACK,
    "repro/rpc2/tcp.py:_RecvCpu.release(_event=)": _CALLBACK,
    "repro/sim/kernel.py:Simulator.__init__(queue=)":
        "test seam: the differential harness injects a queue object",
    "repro/sim/kernel.py:Simulator._schedule_event(delay=)":
        "test seam: the kernel properties schedule raw events at a delay",
    "repro/sim/process.py:Process.interrupt(cause=)":
        "test seam: kernel tests interrupt with a cause and read it back",
    "repro/spec/compile.py:run_spec(checker=)": _SEAM_RUN,
    "repro/spec/compile.py:run_spec(plan=)": _SEAM_RUN,
    "repro/spec/compile.py:run_spec(schedule_log=)": _SEAM_RUN,
    "repro/spec/families.py:run_conflict_storm(checker=)": _FAMILY,
    "repro/spec/families.py:run_conflict_storm(checkers=)": _FAMILY,
    "repro/spec/families.py:run_conflict_storm(observatory=)": _FAMILY,
    "repro/spec/families.py:run_conflict_storm(schedule_log=)": _FAMILY,
    "repro/spec/families.py:run_doc_archive(checker=)": _FAMILY,
    "repro/spec/families.py:run_doc_archive(checkers=)": _FAMILY,
    "repro/spec/families.py:run_doc_archive(observatory=)": _FAMILY,
    "repro/spec/families.py:run_doc_archive(schedule_log=)": _FAMILY,
    "repro/spec/families.py:run_replay(checker=)": _FAMILY,
    "repro/spec/families.py:run_replay(checkers=)": _FAMILY,
    "repro/spec/families.py:run_replay(observatory=)": _FAMILY,
    "repro/spec/families.py:run_replay(schedule_log=)": _FAMILY,
    "repro/spec/golden.py:commuter_golden(observatory=)": _GOLDEN,
    "repro/spec/golden.py:conflict_storm_golden(observatory=)": _GOLDEN,
    "repro/spec/golden.py:doc_archive_golden(observatory=)": _GOLDEN,
    "repro/spec/golden.py:golden_shard0(observatory=)": _GOLDEN,
    "repro/spec/golden.py:golden_shard1(observatory=)": _GOLDEN,
    "repro/spec/golden.py:replay_golden(observatory=)": _GOLDEN,
    "repro/spec/testbed.py:make_testbed(user=)":
        "test seam: advice tests give the client a scripted user",
    "repro/venus/advice.py:ScriptedUser.__init__(approvals=)": _SEAM_USER,
    "repro/venus/advice.py:ScriptedUser.__init__(delay_seconds=)":
        _SEAM_USER,
    "repro/venus/advice.py:ScriptedUser.__init__(hoard_additions=)":
        _SEAM_USER,
}


def _trees(root, top):
    """``(path relative to root/top, module AST)`` of each file there."""
    base = root / top
    for path in sorted(base.rglob("*.py")):
        yield (path.relative_to(base).as_posix(),
               ast.parse(path.read_text(), str(path)))


def _defaults(node, offset):
    """``(param, position)`` of each defaulted parameter of ``node``;
    ``position`` counts arguments after ``offset`` bound ones, and is
    None for keyword-only parameters."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield arg.arg, index - offset
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _is_static(node):
    return any(isinstance(d, ast.Name) and d.id == "staticmethod"
               for d in node.decorator_list)


def settings(root):
    """``{subject: (call names, param, position)}`` for every setting
    under ``root/src/repro``."""
    found = {}
    for relative, tree in _trees(root, "src"):
        _collect(tree.body, relative, "", None, found)
    return found


def _collect(body, relative, prefix, cls, found):
    for node in body:
        if isinstance(node, ast.ClassDef):
            if node.name == "VenusConfig":
                for stmt in node.body:
                    if (isinstance(stmt, ast.AnnAssign)
                            and stmt.value is not None):
                        name = stmt.target.id
                        found["%s:VenusConfig.%s" % (relative, name)] = (
                            {"VenusConfig"}, name, None)
            _collect(node.body, relative, prefix + node.name + ".", node,
                     found)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            offset = 0 if cls is None or _is_static(node) else 1
            names = ({cls.name} if cls is not None and node.name == "__init__"
                     else {node.name})
            for param, position in _defaults(node, offset):
                found["%s:%s%s(%s=)" % (relative, prefix, node.name,
                                         param)] = (names, param, position)
            _collect(node.body, relative, prefix + node.name + ".", None,
                     found)


def _call_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _scan(node, bases, found):
    """Record every call under ``node`` in ``found``; ``bases`` names
    the base classes of the class ``node`` sits in, which a
    ``super().__init__(...)`` there calls."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _scan(child, {_call_name(base) for base in child.bases}, found)
            continue
        if isinstance(child, ast.Call):
            positional = 0
            for arg in child.args:
                if isinstance(arg, ast.Starred):
                    break
                positional += 1
            keywords = {kw.arg for kw in child.keywords} - {None}
            name = _call_name(child.func)
            for callee in bases if name == "__init__" else {name}:
                found.setdefault(callee, []).append((positional, keywords))
            found["VenusConfig"].append((0, keywords))
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            found["VenusConfig"].append((0, {child.value}))
        _scan(child, bases, found)


def calls(root):
    """``{name: [(positional count, keywords)]}`` over every call under
    ``root/src`` and ``root/perfbench``."""
    found = {"VenusConfig": []}
    for top in ("src", "perfbench"):
        for _relative, tree in _trees(root, top):
            _scan(tree, (), found)
    return found


def _is_set(names, param, position, by_name):
    return any(param in keywords
               or (position is not None and positional > position)
               for name in names
               for positional, keywords in by_name.get(name, ()))


def findings(root, allowed):
    """Unset settings not allowed, and allowed ones that are stale."""
    known = settings(root)
    by_name = calls(root)
    unset = {subject for subject, (names, param, position) in known.items()
             if not _is_set(names, param, position, by_name)}
    problems = ["%s: no caller sets it" % subject
                for subject in sorted(unset - set(allowed))]
    for subject in sorted(allowed):
        if subject not in known:
            problems.append("%s: allowed, but no longer exists" % subject)
        elif subject not in unset:
            problems.append("%s: allowed, but a caller sets it" % subject)
    return problems


def test_every_setting_has_a_caller_or_a_reason():
    problems = findings(ROOT, ALLOWED)
    assert not problems, "\n".join(problems)


def test_every_allowed_entry_gives_a_one_line_reason():
    for subject, reason in ALLOWED.items():
        assert reason and "\n" not in reason, subject


def _plant(tmp_path, sources):
    for relative, text in sources.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def test_a_planted_unused_default_is_flagged(tmp_path):
    root = _plant(tmp_path, {
        "src/repro/mod.py": "def f(a, b=1):\n    return a + b\n",
        "perfbench/run.py": "f(1)\n"})
    assert findings(root, {}) == ["repro/mod.py:f(b=): no caller sets it"]


def test_a_default_passed_by_keyword_or_position_passes(tmp_path):
    root = _plant(tmp_path, {
        "src/repro/mod.py": (
            "class C:\n"
            "    def __init__(self, a, b=1):\n"
            "        pass\n"
            "    def m(self, x=0, *, y=2):\n"
            "        pass\n"),
        "src/repro/use.py": "C(1, 2).m(y=3)\n",
        "perfbench/run.py": "C(1).m(5)\n"})
    assert findings(root, {}) == []


def test_an_allowlisted_default_passes_and_a_stale_entry_fails(tmp_path):
    root = _plant(tmp_path, {
        "src/repro/mod.py": "def f(a, b=1):\n    return a + b\n",
        "perfbench/run.py": "f(1)\n"})
    assert findings(root, {"repro/mod.py:f(b=)": "a test seam"}) == []
    assert findings(root, {"repro/mod.py:f(b=)": "a test seam",
                           "repro/mod.py:g(c=)": "gone"}) == [
        "repro/mod.py:g(c=): allowed, but no longer exists"]
