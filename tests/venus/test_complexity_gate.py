"""The complexity gate: per-operation calls into a layer stay flat.

The obs (≤ 1.5) and kernel (≤ 5.2) budgets count Python calls per
dispatched event; this extends the same clock-free count — a pure
function of (input, seed, length) — to ``venus``, ``rpc2`` and ``net``,
at two input sizes each.  Work per operation that grows with history
is a complexity bug no timing gate sees at benchmark scale (PR 12's
log×cache dirty-flag rescan never tripped one).  The count sees
*calls into the layer*: a loop that walks history inline, as that
rescan did (its only per-item calls were dataclass-generated
``Fid.__hash__``, which live in no ``repro/`` file), is invisible to
it — which is why the planted mutant spells the rescan with one
``repro/venus`` call per item.
"""

import pytest

from repro.spec.catalog import get
from repro.spec.compile import run_spec
from repro.venus.venus import Venus
from tests.obs.test_obs_budget import (LONG_DAYS, SHORT_DAYS, calls_into,
                                       profiled, profiled_shard)

SHORT_RECORDS, LONG_RECORDS = 10_000, 20_000
VENUS_CALLS_PER_OPERATION = 12.1


@pytest.fixture(scope="module")
def shard_profiles():
    return [profiled_shard(days, instrument=False)
            for days in (SHORT_DAYS, LONG_DAYS)]


@pytest.mark.parametrize("package", ["venus", "rpc2", "net"])
def test_read_path_calls_per_dispatch_stay_flat(shard_profiles, package):
    """The fleet-8 shard (Fig 9, ``fleet-validate``'s input),
    uninstrumented, three hours → six: venus 2.72 → 1.77 (the initial
    cache walk thins out), rpc2 2.89 → 2.87, net 1.68 → 1.67 calls per
    dispatch.  (Two hours → six, before the idle trickle daemon
    parked: venus 2.72 → 1.32, rpc2 2.08 → 2.05, net 1.21 → 1.19.)"""
    short, long = (calls_into(package, profile) / dispatched
                   for profile, dispatched in shard_profiles)
    assert long <= short * 1.05, (short, long)


def venus_calls_per_operation(records):
    """Calls into ``repro/venus`` per replayed operation: the
    ``replay`` spec (perfbench's ``trickle-replay`` cell: messiaen over
    Modem, A = 300 s, λ = 1 s, write-disconnected) on its ``records``
    prefix of the trace."""
    spec = get("replay").with_params(records=records)
    profile, _result = profiled(lambda: run_spec(spec))
    return calls_into("venus", profile) / records


def test_write_path_venus_calls_per_operation_stay_flat():
    """11.53 → 11.56 (5,000 records: 11.69; fixed set-up cost thins
    out; the last 0.01 is the previous run's daemon generators closed
    inside this run's profile), gated at ≤ 12.1; 33.29 → 33.29 before the replay path lost
    its trampoline frames and its seven-call hit check.
    ``rpc2``/``net`` per operation *rise* on this input
    (0.61 → 0.98, 3.70 → 4.10) because trickle reintegration only
    starts shipping once records outlive the aging window — a workload
    phase, not a complexity bug — so they are not gated here."""
    short = venus_calls_per_operation(SHORT_RECORDS)
    long = venus_calls_per_operation(LONG_RECORDS)
    assert long <= short * 1.01, (short, long)
    assert long <= VENUS_CALLS_PER_OPERATION, long


def test_a_restored_log_times_cache_rescan_breaks_the_gate(monkeypatch):
    """Planted mutant: every CML append walks the whole cache against
    the whole log again (PR 12's retired ``_refresh_dirty``), one
    ``repro/venus`` call per pair: 41.5 calls per operation at 10,000
    records, and climbing (18.0 at 2,500)."""
    refresh = Venus._refresh_dirty

    def rescan(venus):
        for entry in venus.cache.iter_entries():
            for record in venus.cml:
                record.size
        refresh(venus)

    monkeypatch.setattr(Venus, "_refresh_dirty", rescan)
    assert venus_calls_per_operation(SHORT_RECORDS) \
        > VENUS_CALLS_PER_OPERATION
