"""The shared liveness registry."""

from repro.rpc2 import LivenessRegistry


def test_unknown_peer_is_silent_forever(sim):
    registry = LivenessRegistry(sim)
    assert registry.silent_for("nowhere") == float("inf")
    assert not registry.is_reachable("nowhere")


def test_heard_from_marks_reachable(sim):
    registry = LivenessRegistry(sim)
    registry.heard_from("server")
    assert registry.is_reachable("server")
    assert registry.silent_for("server") == 0.0


def test_silence_accumulates_with_time(sim):
    registry = LivenessRegistry(sim)
    registry.heard_from("server")

    def later():
        yield sim.timeout(42.0)
        return registry.silent_for("server")

    assert sim.run(sim.process(later())) == 42.0


def test_mark_unreachable_overrides(sim):
    registry = LivenessRegistry(sim)
    registry.heard_from("server")
    registry.mark_unreachable("server")
    assert not registry.is_reachable("server")
    # But hearing from it again restores reachability.
    registry.heard_from("server")
    assert registry.is_reachable("server")


def test_peers_are_independent(sim):
    registry = LivenessRegistry(sim)
    registry.heard_from("a")
    registry.mark_unreachable("b")
    assert registry.is_reachable("a")
    assert not registry.is_reachable("b")
