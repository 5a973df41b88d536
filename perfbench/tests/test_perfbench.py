"""Self-test of the benchmark (not part of tier-1).

Run with ``python -m pytest perfbench/tests -q`` from the repository
root.  Two smoke runs of the whole benchmark take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

from perfbench import child, compare, layers, run

ROOT = run.ROOT
EXACT = compare.EXACT_UNITS


@pytest.fixture(scope="module")
def declared():
    return run.load_benchmark()


def _smoke(path):
    subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                    "--smoke", "--out", str(path)], check=True, timeout=120,
                   capture_output=True)
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smokes(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    return _smoke(out / "a.json"), _smoke(out / "b.json")


def test_smoke_emits_every_named_metric_and_no_other(declared, smokes):
    first, _second = smokes
    assert list(first["workloads"]) == sorted(
        workload["name"] for workload in declared["workloads"])
    for entry in first["workloads"].values():
        assert entry["failed"] == 0, entry["failures"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            line = json.loads(run.contract_line(declared, entry, trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] and line["attempted"] >= 1
            assert {name: metric["unit"]
                    for name, metric in line["metrics"].items()} == {
                metric["name"]: metric["unit"] for metric in declared[kind]}


def test_smoke_counts_and_fingerprints_repeat_exactly(declared, smokes):
    first, second = smokes
    units = {metric["name"]: metric["unit"]
             for metric in declared["per_layer"]}
    for name, entry in first["workloads"].items():
        other = second["workloads"][name]
        assert entry["fingerprints"] == other["fingerprints"]
        assert entry["attempted"] == other["attempted"]
        for metric, value in entry["per_layer"].items():
            if units[metric] in EXACT:
                assert value == other["per_layer"][metric], (name, metric)


def test_profile_folds_into_the_layers(smokes):
    for name, entry in smokes[0]["workloads"].items():
        layer = entry["per_layer"]
        assert layer["profile.folded_share"] >= 0.99, name
        shares = sum(value for metric, value in layer.items()
                     if metric.endswith(".self_share"))
        assert shares == pytest.approx(1.0)


def test_every_module_under_src_repro_has_one_layer():
    root = os.path.join(ROOT, "src", "repro") + os.sep
    packages = {name[:-3] if name.endswith(".py") else name
                for name in os.listdir(root) if name != "__pycache__"}
    assert packages == set(layers.LAYER_OF_PACKAGE)
    for directory, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                assert layers.layer_of(path, root) in layers.LAYERS, path


def test_a_raising_driver_is_a_failed_operation_not_a_crash(tmp_path):
    def boom(*_args):
        raise RuntimeError("planted")

    planted = types.SimpleNamespace(prepare=lambda *_args: {}, execute=boom,
                                    finish=boom)
    record = child.repetition(lambda: (planted, {}), 0, "timed",
                              str(tmp_path))
    assert record["failed"] == record["attempted"] >= 1
    assert "planted" in record["failures"][0]
    record["ref_s"] = run.NOMINAL
    entry = run.end_to_end([record])
    assert entry["failed_share"] == 1.0


def test_a_dying_child_is_a_failed_repetition(tmp_path):
    record = run.spawn("bulk-transfer", 0, "timed", "smoke",
                       str(tmp_path / "missing"))
    assert record["failed"] == record["attempted"] == 1
    assert record["failures"][0].startswith("child exit")


def test_compare_verdicts():
    base = run.summarise([1.00, 1.01, 1.02, 1.03])
    assert compare.verdict(base, run.summarise([1.30, 1.31, 1.33]), "lower",
                           0.10) == "worse"
    assert compare.verdict(base, run.summarise([1.01, 1.02, 1.04]), "lower",
                           0.10) == "within"
    assert compare.verdict(base, run.summarise([0.90, 0.91, 0.92]), "lower",
                           0.10) == "better"
    assert compare.verdict(base, run.summarise([0.90, 1.00, 1.10, 1.30]),
                           "lower", 0.10) == "unresolved"
    assert compare.verdict(base, run.summarise([0.5, 0.6, 0.7]), "higher",
                           0.10) == "worse"


def test_refuses_outside_a_checkout_with_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-transfer",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "repro" in done.stderr
    assert not done.stdout.strip()
