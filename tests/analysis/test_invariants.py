"""Runtime invariant checking: clean on the real scenarios, and every
invariant trips when its violation is planted."""

import pytest

from repro.analysis.invariants import (InvariantChecker,
                                       InvariantViolation)
from repro.net import MODEM
from repro.obs import Observatory
from repro.spec.catalog import get
from repro.spec.compile import run_spec
from repro.spec.testbed import make_testbed, populate_volume, warm_cache

MOUNT = "/coda/usr/bob"


def attached_testbed(warm=False):
    """A standard testbed with an observatory and a strict checker."""
    testbed = make_testbed(MODEM, observatory=Observatory())
    checker = InvariantChecker().attach(testbed)
    volume = populate_volume(testbed.server, MOUNT, {
        MOUNT + "/work": ("dir", 0),
        MOUNT + "/work/a.txt": ("file", 1_000),
    })
    if warm:
        warm_cache(testbed.venus, testbed.server, volume)
    return testbed, checker, volume


# ---------------------------------------------------------------------------
# Real scenarios stay clean under a strict checker


@pytest.mark.parametrize("name", ["trickle", "outage"])
def test_obs_scenarios_hold_invariants(name):
    checker = InvariantChecker()
    run_spec(get(name), observatory=Observatory(), checker=checker)
    checker.check_all()
    assert checker.violations == []
    assert checker.checks > 0


@pytest.mark.parametrize("name", ["smoke", "client-crash", "server-crash"])
def test_fault_scenarios_hold_invariants(name):
    """Crash/recovery is exactly where these invariants earn their keep:
    seqno continuity and callback volatility across restore."""
    checker = InvariantChecker()
    run_spec(get(name), observatory=Observatory(), checker=checker)
    checker.check_all()
    assert checker.violations == []
    assert checker.checks > 0


# ---------------------------------------------------------------------------
# CML seqno invariants (unit level: any iterable of .seqno records)


class Rec:
    def __init__(self, seqno):
        self.seqno = seqno


def test_cml_out_of_order_seqnos_trip():
    checker = InvariantChecker()
    with pytest.raises(InvariantViolation, match="strictly increasing"):
        checker.check_cml("laptop", [Rec(1), Rec(3), Rec(2)])


def test_cml_seqno_reuse_across_restore_trips():
    checker = InvariantChecker()
    checker.check_cml("laptop", [Rec(2), Rec(4)])
    # Re-seeing known seqnos (a restored log) is fine...
    checker.check_cml("laptop", [Rec(2), Rec(4)])
    # ...but a *new* seqno at or under the high-water mark is reuse.
    with pytest.raises(InvariantViolation, match="reuse"):
        checker.check_cml("laptop", [Rec(2), Rec(3)])


def test_cml_seqnos_tracked_per_node():
    checker = InvariantChecker()
    checker.check_cml("laptop", [Rec(5)])
    checker.check_cml("desktop", [Rec(1)])    # independent namespace
    assert checker.violations == []


# ---------------------------------------------------------------------------
# Planted violations against a live testbed


def test_store_version_decrement_trips():
    testbed, checker, volume = attached_testbed()
    checker.check_store_versions()            # record the baseline
    vnode = next(iter(volume.vnodes.values()))
    vnode.version += 3
    checker.check_store_versions()            # forward motion is fine
    vnode.version -= 1
    with pytest.raises(InvariantViolation, match="backwards"):
        checker.check_store_versions()


def test_link_byte_leak_trips():
    testbed, checker, _ = attached_testbed()
    checker.check_link_conservation()
    testbed.link.forward.stats.bytes_sent += 10
    with pytest.raises(InvariantViolation, match="conservation|sent"):
        checker.check_link_conservation()


def test_callback_surviving_client_restart_trips():
    """warm_cache grants callbacks; a freshly-restored client claiming
    them without revalidation violates callback volatility."""
    testbed, checker, _ = attached_testbed(warm=True)
    with pytest.raises(InvariantViolation, match="callback"):
        checker.check_client_callbacks_cleared()


def test_callback_surviving_server_restart_trips():
    testbed, checker, _ = attached_testbed(warm=True)
    with pytest.raises(InvariantViolation, match="volatile"):
        checker.check_server_registry_empty()


def test_clean_testbed_passes_restart_checks():
    testbed, checker, _ = attached_testbed(warm=False)
    checker.check_client_callbacks_cleared()
    checker.check_server_registry_empty()
    assert checker.violations == []


# ---------------------------------------------------------------------------
# Collect mode and wiring


def test_non_strict_mode_collects_instead_of_raising():
    checker = InvariantChecker(strict=False)
    checker.check_cml("laptop", [Rec(2), Rec(1), Rec(1)])
    assert len(checker.violations) >= 2
    assert "violation(s)" in checker.summary()
    assert all(v.format().startswith("[cml_seqno")
               for v in checker.violations)


def test_attach_requires_enabled_observatory():
    testbed = make_testbed(MODEM)             # no observatory installed
    with pytest.raises(ValueError, match="Observatory"):
        InvariantChecker().attach(testbed)


def test_detach_restores_the_event_hook():
    testbed, checker, _ = attached_testbed()
    observatory = testbed.obs
    hooked = observatory.event
    checker.detach()
    assert observatory.event is not hooked
    # Detached: tampering no longer raises through event recording.
    testbed.link.forward.stats.bytes_sent += 10
    observatory.event("cache_miss", node="laptop")
