"""Callback registry semantics."""

from repro.fs import Fid
from repro.server import CallbackRegistry

from tests.conftest import has_callback


F1 = Fid(7, 1, 1)
F2 = Fid(7, 2, 2)
F_OTHER_VOL = Fid(8, 1, 1)


def test_object_callback_lifecycle():
    registry = CallbackRegistry()
    registry.add_object("alice", F1)
    assert has_callback(registry, "alice", F1)
    broken_obj, broken_vol = registry.breaks_for_update("bob", F1)
    assert broken_obj == {"alice"}
    assert not has_callback(registry, "alice", F1)
    assert registry.object_breaks == 1


def test_updater_keeps_own_callbacks():
    registry = CallbackRegistry()
    registry.add_object("alice", F1)
    registry.add_volume("alice", 7)
    broken_obj, broken_vol = registry.breaks_for_update("alice", F1)
    assert broken_obj == set() and broken_vol == set()
    assert has_callback(registry, "alice", F1)
    assert has_callback(registry, "alice", 7)


def test_volume_callback_broken_by_any_update_in_volume():
    registry = CallbackRegistry()
    registry.add_volume("alice", 7)
    _obj, vol = registry.breaks_for_update("bob", F2)
    assert vol == {"alice"}
    assert not has_callback(registry, "alice", 7)
    assert registry.volume_breaks == 1


def test_update_in_other_volume_does_not_break():
    registry = CallbackRegistry()
    registry.add_volume("alice", 7)
    _obj, vol = registry.breaks_for_update("bob", F_OTHER_VOL)
    assert vol == set()
    assert has_callback(registry, "alice", 7)


def test_multiple_holders_all_broken():
    registry = CallbackRegistry()
    for client in ("a", "b", "c"):
        registry.add_object(client, F1)
        registry.add_volume(client, 7)
    obj, vol = registry.breaks_for_update("a", F1)
    assert obj == {"b", "c"}
    assert vol == {"b", "c"}


def test_drop_client_forgets_all_promises():
    registry = CallbackRegistry()
    registry.add_object("alice", F1)
    registry.add_object("alice", F2)
    registry.add_volume("alice", 7)
    registry.drop_client("alice")
    assert not has_callback(registry, "alice", F1)
    assert not has_callback(registry, "alice", 7)


def test_holder_counts():
    registry = CallbackRegistry()
    registry.add_object("a", F1)
    registry.add_object("b", F1)
    registry.add_volume("a", 7)
    assert registry.total_promises() == 3
    registry.drop_client("a")
    assert registry.total_promises() == 1
