"""FaultPlan validation, ordering, and dict round-tripping."""

from dataclasses import fields

import pytest

from repro.faults import (
    ACTION_TYPES,
    ClientCrash,
    ClientRestart,
    FaultPlan,
    LinkDegrade,
    LinkOutage,
    LossBurst,
    ServerCrash,
    ServerRestart,
)


class TestValidation:

    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.empty
        assert len(plan) == 0
        assert list(plan) == []

    def test_actions_sorted_by_time(self):
        plan = FaultPlan([
            ClientRestart(at=300.0),
            LinkOutage(at=10.0, duration=5.0),
            ClientCrash(at=200.0),
        ])
        assert [a.at for a in plan] == [10.0, 200.0, 300.0]

    def test_simultaneous_actions_keep_authored_order(self):
        first = LinkOutage(at=50.0, duration=5.0)
        second = LossBurst(at=50.0, duration=5.0)
        plan = FaultPlan([first, second])
        assert plan.actions == (first, second)

    def test_rejects_non_action(self):
        with pytest.raises(TypeError):
            FaultPlan(["link_outage"])

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            FaultPlan([ServerCrash(at=-1.0)])

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            FaultPlan([LinkOutage(at=5.0, duration=0.0)])
        with pytest.raises(ValueError):
            FaultPlan([LossBurst(at=5.0, duration=-3.0)])


class TestPairing:

    def test_restart_without_crash_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan([ClientRestart(at=10.0)])
        with pytest.raises(ValueError):
            FaultPlan([ServerRestart(at=10.0)])

    def test_double_crash_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan([ClientCrash(at=10.0), ClientCrash(at=20.0)])
        with pytest.raises(ValueError):
            FaultPlan([ServerCrash(at=10.0), ServerCrash(at=20.0)])

    def test_crash_restart_crash_restart_ok(self):
        plan = FaultPlan([
            ClientCrash(at=10.0), ClientRestart(at=20.0),
            ClientCrash(at=30.0), ClientRestart(at=40.0),
        ])
        assert len(plan) == 4

    def test_client_and_server_tracked_independently(self):
        plan = FaultPlan([
            ServerCrash(at=10.0), ClientCrash(at=15.0),
            ServerRestart(at=20.0), ClientRestart(at=25.0),
        ])
        assert len(plan) == 4

    def test_unmatched_final_crash_allowed(self):
        # A run may legitimately end with a node still down.
        plan = FaultPlan([ServerCrash(at=10.0)])
        assert len(plan) == 1


class TestDictRoundTrip:

    ROWS = [
        {"kind": "link_outage", "at": 10.0, "duration": 30.0},
        {"kind": "link_degrade", "at": 50.0, "duration": 20.0,
         "bandwidth_bps": 9600.0, "loss_rate": 0.1},
        {"kind": "loss_burst", "at": 90.0, "duration": 10.0,
         "loss_rate": 0.3},
        {"kind": "server_crash", "at": 120.0},
        {"kind": "server_restart", "at": 150.0},
        {"kind": "client_crash", "at": 180.0},
        {"kind": "client_restart", "at": 210.0},
    ]

    def test_round_trip(self):
        """Every row field lands on its action: nothing is dropped."""
        plan = FaultPlan.from_dicts(self.ROWS)
        rows = [dict({"kind": action.kind}, **{
            f.name: getattr(action, f.name) for f in fields(action)})
            for action in plan.actions]
        assert rows == self.ROWS

    def test_covers_whole_vocabulary(self):
        plan = FaultPlan.from_dicts(self.ROWS)
        assert {a.kind for a in plan} == set(ACTION_TYPES)

    def test_unknown_kind_names_the_vocabulary(self):
        with pytest.raises(ValueError) as excinfo:
            FaultPlan.from_dicts([{"kind": "meteor_strike", "at": 1.0}])
        message = str(excinfo.value)
        assert "meteor_strike" in message
        for kind in ACTION_TYPES:
            assert kind in message

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            FaultPlan.from_dicts(
                [{"kind": "server_crash", "at": 1.0, "severity": 11}])
        assert "severity" in str(excinfo.value)

    def test_degrade_defaults(self):
        action = LinkDegrade(at=5.0, duration=10.0)
        assert action.bandwidth_bps is None
        assert action.loss_rate is None
