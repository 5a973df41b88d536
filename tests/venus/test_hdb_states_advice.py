"""Hoard database, Venus state machine, user models, miss log."""

import pytest

from repro.venus import (
    HoardDatabase,
    MissRecord,
    ScriptedUser,
    TimeoutUser,
    VenusState,
)
from repro.venus.advice import FetchCandidate
from repro.venus.misshandler import MissLog
from repro.venus.states import IllegalTransition, VenusStateMachine


# ---------------------------------------------------------------- HDB

def test_hdb_add_and_priority():
    hdb = HoardDatabase()
    hdb.add("/coda/a/b", 600)
    assert hdb.priority_for("/coda/a/b") == 600
    assert hdb.priority_for("/coda/a/b/c") == 0
    assert hdb.priority_for("/coda/x") == 0


def test_hdb_children_covers_descendants():
    hdb = HoardDatabase()
    hdb.add("/coda/proj", 100, children=True)
    assert hdb.priority_for("/coda/proj/src/deep/file.c") == 100
    assert hdb.priority_for("/coda/projX") == 0


def test_hdb_highest_covering_priority_wins():
    hdb = HoardDatabase()
    hdb.add("/coda/proj", 100, children=True)
    hdb.add("/coda/proj/src/main.c", 900)
    assert hdb.priority_for("/coda/proj/src/main.c") == 900


def test_hdb_entries_sorted_by_priority():
    hdb = HoardDatabase()
    hdb.add("/a", 10)
    hdb.add("/b", 500)
    hdb.add("/c", 100)
    assert [e.priority for e in hdb.entries()] == [500, 100, 10]


def test_hdb_replace_and_remove():
    hdb = HoardDatabase()
    hdb.add("/a", 10)
    hdb.add("/a", 20)
    assert len(hdb) == 1
    assert hdb.priority_for("/a") == 20


def test_hdb_rejects_negative_priority():
    with pytest.raises(ValueError):
        HoardDatabase().add("/a", -1)


# ------------------------------------------------------------- states

def test_figure2_legal_transitions():
    machine = VenusStateMachine(initial=VenusState.EMULATING)
    machine.transition(VenusState.WRITE_DISCONNECTED, now=1.0)
    machine.transition(VenusState.HOARDING, now=2.0)
    machine.transition(VenusState.WRITE_DISCONNECTED, now=3.0)
    machine.transition(VenusState.EMULATING, now=4.0)
    assert len(machine.transitions) == 4


def test_no_direct_emulating_to_hoarding():
    """Reconnection always passes through write disconnected."""
    machine = VenusStateMachine(initial=VenusState.EMULATING)
    with pytest.raises(IllegalTransition):
        machine.transition(VenusState.HOARDING)


def test_hoarding_to_emulating_on_disconnect():
    machine = VenusStateMachine(initial=VenusState.HOARDING)
    machine.transition(VenusState.EMULATING)
    assert machine.state is VenusState.EMULATING


def test_self_transition_is_noop():
    machine = VenusStateMachine(initial=VenusState.HOARDING)
    assert machine.transition(VenusState.HOARDING) is False
    assert machine.transitions == []


def test_listeners_called_on_transition():
    machine = VenusStateMachine(initial=VenusState.EMULATING)
    seen = []
    machine.on_transition(lambda old, new: seen.append((old, new)))
    machine.transition(VenusState.WRITE_DISCONNECTED)
    assert seen == [(VenusState.EMULATING, VenusState.WRITE_DISCONNECTED)]


# --------------------------------------------------------- user models

def candidates():
    return [
        FetchCandidate("/a", 900, 1000, 1.0, preapproved=True),
        FetchCandidate("/b", 100, 9_000_000, 900.0, preapproved=False),
        FetchCandidate("/c", 100, 5_000_000, 500.0, preapproved=False),
    ]


def test_timeout_user_fetches_everything():
    approved, suppressed = TimeoutUser().approve_fetches(candidates())
    assert approved == ["/b", "/c"]
    assert suppressed == []


def test_never_approve_skips_all():
    """A scripted user with no approvals declines every open row."""
    approved, suppressed = ScriptedUser().approve_fetches(candidates())
    assert approved == [] and suppressed == []


def test_scripted_user_decisions():
    user = ScriptedUser(approvals={"/b": True, "/c": "stop"})
    approved, suppressed = user.approve_fetches(candidates())
    assert approved == ["/b"]
    assert suppressed == ["/c"]
    assert user.asked == ["/b", "/c"]


def test_scripted_user_hoard_additions_once():
    user = ScriptedUser(hoard_additions=[("/a", 600, False)])
    assert user.review_misses([]) == [("/a", 600, False)]
    assert user.review_misses([]) == []


# ------------------------------------------------------------ miss log

def test_miss_log_drain():
    log = MissLog()
    log.record(MissRecord(path="/a", time=1.0, program="emacs"))
    log.record(MissRecord(path="/b", time=2.0))
    assert len(log) == 2
    drained = log.drain()
    assert [m.path for m in drained] == ["/a", "/b"]
    assert len(log) == 0
    assert log.total_recorded == 2
