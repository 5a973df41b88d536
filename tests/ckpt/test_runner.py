"""The checkpoint subsystem's headline guarantee: byte-identity.

A checkpointed run extended by N days must produce a store that is
byte-for-byte identical to a from-scratch run of the total duration —
every timeline line, every metrics row, every boundary state pickle,
and the manifest.  The same holds across buffering strategies
(streamed vs resident) and across worker counts; only wall-clock and
memory may differ.  Day lengths here are tiny (minutes of sim time)
so four full fleet-8 runs stay inside the tier-1 budget.
"""

import hashlib
import os

import pytest

from repro.ckpt import (
    CheckpointError,
    CheckpointStore,
    CkptOptions,
    extend_checkpointed,
    report_from_store,
    run_checkpointed,
    verify_checkpoint,
)

OPTIONS = CkptOptions(day_seconds=600.0)


def tree_bytes(root):
    """{relative path: sha256} over every file under ``root``."""
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for fname in files:
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out[os.path.relpath(path, root)] = digest
    return out


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """fleet-8, 3 day units, reached four different ways."""
    base = tmp_path_factory.mktemp("ckpt-runner")
    paths = {name: str(base / name)
             for name in ("scratch", "extended", "resident", "pooled")}
    reports = {
        "scratch": run_checkpointed("fleet-8", days=3,
                                    out=paths["scratch"],
                                    options=OPTIONS),
    }
    run_checkpointed("fleet-8", days=2, out=paths["extended"],
                     options=OPTIONS)
    reports["extended"] = extend_checkpointed(paths["extended"], 1)
    reports["resident"] = run_checkpointed("fleet-8", days=3,
                                           out=paths["resident"],
                                           options=OPTIONS, stream=False)
    reports["pooled"] = run_checkpointed("fleet-8", days=3,
                                         out=paths["pooled"],
                                         options=OPTIONS, workers=2)
    return paths, reports


def test_extend_is_byte_identical_to_scratch(stores):
    paths, _ = stores
    assert tree_bytes(paths["scratch"]) == tree_bytes(paths["extended"])


def test_resident_is_byte_identical_to_streamed(stores):
    paths, _ = stores
    assert tree_bytes(paths["scratch"]) == tree_bytes(paths["resident"])


def test_worker_pool_is_byte_identical_to_in_process(stores):
    paths, _ = stores
    assert tree_bytes(paths["scratch"]) == tree_bytes(paths["pooled"])


def test_every_path_reports_the_same_fleet(stores):
    _, reports = stores
    reference = reports["scratch"].to_dict()
    for name in ("extended", "resident", "pooled"):
        assert reports[name].to_dict() == reference, name


def test_report_totals_are_sane(stores):
    _, reports = stores
    report = reports["scratch"]
    assert report.clients == 8
    assert report.dispatched > 0
    assert report.sim_seconds == pytest.approx(
        3 * OPTIONS.day_seconds * len(report.shards))
    assert report.validation_attempts > 0


def test_report_from_store_is_a_pure_function_of_the_directory(stores):
    paths, reports = stores
    rebuilt = report_from_store(paths["scratch"])
    assert rebuilt.to_dict() == reports["scratch"].to_dict()


def test_run_refuses_an_existing_checkpoint(stores):
    paths, _ = stores
    with pytest.raises(CheckpointError, match="already exists"):
        run_checkpointed("fleet-8", days=1, out=paths["scratch"],
                         options=OPTIONS)


def test_run_refuses_zero_days(tmp_path):
    with pytest.raises(CheckpointError, match="at least one day"):
        run_checkpointed("fleet-8", days=0, out=str(tmp_path / "x"),
                         options=OPTIONS)


def test_extend_refuses_a_missing_checkpoint(tmp_path):
    with pytest.raises(CheckpointError):
        extend_checkpointed(str(tmp_path / "nothing"), 1)


def test_extend_refuses_zero_days(stores):
    paths, _ = stores
    with pytest.raises(CheckpointError, match="at least one day"):
        extend_checkpointed(paths["scratch"], 0)


def test_extend_refuses_a_foreign_state_schema(stores, tmp_path):
    import json
    import shutil

    paths, _ = stores
    copy = str(tmp_path / "foreign")
    shutil.copytree(paths["scratch"], copy)
    manifest_path = os.path.join(copy, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["state_schema"] = 99
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(CheckpointError, match="state schema"):
        extend_checkpointed(copy, 1)


def test_a_store_of_the_version_1_schemas_is_refused_by_name(stores,
                                                            tmp_path):
    """Version 1 pickled symlink targets, hard-link counts, open-session
    pins and rename/setattr CML fields.  Such a store is refused by its
    schema numbers before any state is unpickled: by extend, and by
    verify (which then replays nothing)."""
    import json
    import shutil

    paths, _ = stores
    copy = str(tmp_path / "version-1")
    shutil.copytree(paths["scratch"], copy)
    manifest_path = os.path.join(copy, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["state_schema"] = manifest["snapshot_schema"] = 1
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(CheckpointError,
                       match="ckpt state schema 1; this build writes 2"):
        extend_checkpointed(copy, 1)
    verdict = verify_checkpoint(copy)
    [refusal] = verdict.failures
    assert refusal.name == "schema-versions"
    assert "schema 1; this build writes 2" in refusal.detail
    assert not any(check.name.startswith("replay")
                   for check in verdict.checks)


def test_extend_refuses_a_shard_identity_mismatch(stores, tmp_path):
    import json
    import shutil

    paths, _ = stores
    copy = str(tmp_path / "mismatch")
    shutil.copytree(paths["scratch"], copy)
    manifest_path = os.path.join(copy, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["shards"][0]["seed"] = 12345
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(CheckpointError, match="identity mismatch"):
        extend_checkpointed(copy, 1)


#: fleet-8 with a 20 s swap window: at 600 s days the op gap never
#: reaches the shipped 3,600 s window, so only a short one parks
#: clients mid-day (capture, crash, rehydrate) inside tier-1.
PARKING = CkptOptions(day_seconds=600.0, swap_window=20.0,
                      settle_seconds=5.0)


@pytest.mark.parametrize("scenario,options", [
    pytest.param("fleet-32", CkptOptions(day_seconds=450.0),
                 id="fleet-32-450.0"),
    pytest.param("commuter", CkptOptions(day_seconds=600.0),
                 id="commuter-600.0"),
    pytest.param("fleet-8", PARKING, id="fleet-8-parking"),
])
def test_extend_identity_holds_per_family(tmp_path, scenario, options):
    """The acceptance families: figure9 at fleet-32 scale and the
    diurnal commuter family both extend byte-identically, and so does
    a fleet whose clients park mid-day."""
    scratch = str(tmp_path / "scratch")
    grown = str(tmp_path / "grown")
    run_checkpointed(scenario, days=2, out=scratch, options=options)
    run_checkpointed(scenario, days=1, out=grown, options=options)
    extend_checkpointed(grown, 1)
    assert tree_bytes(scratch) == tree_bytes(grown)
    if options is PARKING:
        store = CheckpointStore(scratch)
        assert sum(record["swap_out"]
                   for entry in store.read_manifest()["shards"]
                   for record in store.shard(entry["index"]).read_days()) > 0
        assert verify_checkpoint(scratch).ok


def test_a_day_unit_encodes_each_timeline_row_once(tmp_path, monkeypatch):
    """The lines hashed for the day digest are the lines appended to
    the timeline: one ``canonical`` call per row, not two."""
    from repro.ckpt.store import CheckpointStore
    from repro.fleetd import executor
    encode = executor.canonical
    encoded = []

    def counting(row):
        encoded.append(row)
        return encode(row)

    monkeypatch.setattr(executor, "canonical", counting)
    out = str(tmp_path / "once")
    run_checkpointed("fleet-8", days=2, out=out, options=OPTIONS)
    store = CheckpointStore(out)
    manifest = store.read_manifest()
    assert len(encoded) == sum(s["events"] for s in manifest["shards"]) > 0
    for entry in manifest["shards"]:
        files = store.shard(entry["index"])
        records = files.read_days()
        assert files.day_digests([r["events"] for r in records]) \
            == [r["digest"] for r in records] == entry["day_digests"]
