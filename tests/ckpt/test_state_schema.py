"""Schema stamps on everything that crosses a process boundary.

A checkpoint written by one build must never be silently misread by
another: the Venus RVM snapshot carries an explicit
``schema_version`` (and :func:`restore_venus` refuses any other), and
the ckpt :class:`ShardState` repeats the check one level up — for
itself and for every embedded client snapshot.
"""

import json
import os
import pickle
import shutil
from dataclasses import replace

import pytest

from repro.faults.persistence import (
    SNAPSHOT_SCHEMA_VERSION,
    restore_venus,
    snapshot_venus,
)
from tests.conftest import build_testbed


def test_snapshots_are_stamped_with_the_current_schema():
    testbed = build_testbed()
    snapshot = snapshot_venus(testbed.venus)
    assert snapshot.schema_version == SNAPSHOT_SCHEMA_VERSION


def test_restore_accepts_only_the_current_snapshot_schema():
    testbed = build_testbed()
    snapshot = snapshot_venus(testbed.venus)
    host = testbed.venus.endpoint.host
    testbed.venus.crash()
    restored = restore_venus(snapshot, testbed.sim, testbed.net, host)
    assert restored.node == testbed.venus.node

    foreign = replace(snapshot, schema_version=99)
    with pytest.raises(ValueError, match="schema version 99"):
        restore_venus(foreign, testbed.sim, testbed.net, host)


class _LegacySnapshot:
    """A stand-in for a pickle from before the stamp existed: same
    payload attributes, but no ``schema_version`` anywhere (the
    dataclass default would otherwise mask the missing field)."""


def test_restore_refuses_an_unstamped_legacy_snapshot():
    testbed = build_testbed()
    snapshot = snapshot_venus(testbed.venus)
    legacy = _LegacySnapshot()
    legacy.__dict__.update(snapshot.__dict__)
    del legacy.__dict__["schema_version"]
    thawed = pickle.loads(pickle.dumps(legacy))
    with pytest.raises(ValueError, match="schema version None"):
        restore_venus(thawed, testbed.sim, testbed.net,
                      testbed.venus.endpoint.host)


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    """A tiny one-day checkpoint store of the current schema."""
    from repro.ckpt import CkptOptions, run_checkpointed

    root = str(tmp_path_factory.mktemp("ckpt-schema") / "store")
    run_checkpointed("fleet-8", days=1, out=root,
                     options=CkptOptions(day_seconds=300.0))
    return root


@pytest.fixture(scope="module")
def shard_state(store_root):
    """A real day-boundary ShardState from a tiny checkpointed run."""
    from repro.ckpt.store import CheckpointStore

    return pickle.loads(
        CheckpointStore(store_root).shard(0).read_state_bytes(1))


@pytest.fixture
def version_2_store(store_root, tmp_path):
    """The store as the previous snapshot schema stamped it."""
    root = str(tmp_path / "v2")
    shutil.copytree(store_root, root)
    path = os.path.join(root, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    assert manifest["snapshot_schema"] == SNAPSHOT_SCHEMA_VERSION == 3
    manifest["snapshot_schema"] = 2
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    return root


def test_extend_refuses_a_version_2_store_by_name(version_2_store):
    from repro.ckpt import extend_checkpointed
    from repro.ckpt.store import CheckpointError

    with pytest.raises(CheckpointError,
                       match="venus snapshot schema 2; this build "
                             "writes 3"):
        extend_checkpointed(version_2_store, 1)


def test_verify_fails_only_the_schema_check_of_a_version_2_store(
        version_2_store):
    from repro.ckpt.verify import verify_checkpoint

    verdict = verify_checkpoint(version_2_store)
    assert [check.name for check in verdict.failures] == ["schema-versions"]
    assert "venus snapshot schema 2" in verdict.failures[0].detail


def test_check_schema_accepts_the_current_state(shard_state):
    from repro.ckpt.state import SCHEMA_VERSION, check_schema

    assert shard_state.schema_version == SCHEMA_VERSION
    assert check_schema(shard_state) is shard_state


def test_check_schema_refuses_a_foreign_shard_state(shard_state):
    from repro.ckpt.state import check_schema

    foreign = replace(shard_state, schema_version=77)
    with pytest.raises(ValueError, match="ckpt schema version 77"):
        check_schema(foreign)


def test_check_schema_refuses_a_foreign_client_snapshot(shard_state):
    from repro.ckpt.state import check_schema

    name = sorted(shard_state.clients)[0]
    client = shard_state.clients[name]
    foreign_clients = dict(shard_state.clients)
    foreign_clients[name] = replace(
        client, snapshot=replace(client.snapshot, schema_version=0))
    foreign = replace(shard_state, clients=foreign_clients)
    with pytest.raises(ValueError, match="snapshot has schema version 0"):
        check_schema(foreign)
