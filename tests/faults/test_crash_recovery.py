"""Crash/recovery end-to-end: scripted crashes recover consistently.

The load-bearing invariant throughout: a run interrupted by a crash
must converge to the *same server namespace* as the same run with no
faults at all.  Volume stamps bump once per applied record, so digest
equality (stamps included) is also a proof that no CML record was
applied twice.
"""

import pytest

from repro.cli import main
from repro.faults import FaultPlan, namespace_digest
from repro.fs.content import SyntheticContent
from repro.net import MODEM
from repro.obs import Observatory
from repro.spec.catalog import MOUNT, get
from repro.spec.compile import run_spec
from repro.spec.testbed import make_testbed, populate_volume, warm_cache
from tests.conftest import exits_2


class TestSmokeScenario:

    @pytest.fixture(scope="class")
    def observed(self):
        observatory = Observatory()
        testbed = run_spec(get("smoke"), observatory=observatory).testbed
        return observatory, testbed

    def test_whole_timeline_executed(self, observed):
        _observatory, testbed = observed
        labels = [label for _when, label in testbed.faults.log]
        assert labels == ["link_outage", "link_outage:revert",
                          "loss_burst", "loss_burst:revert",
                          "client_crash", "client_restart"]

    def test_crash_caught_records_in_the_log(self, observed):
        _observatory, testbed = observed
        snapshot = testbed.faults.client_snapshot
        assert snapshot is not None
        assert snapshot.cml_len >= 1

    def test_log_drains_after_restart(self, observed):
        _observatory, testbed = observed
        assert len(testbed.venus.cml) == 0
        assert testbed.venus.cml.stats.reintegrated_records >= 4

    def test_all_updates_reach_the_server(self, observed):
        _observatory, testbed = observed
        rows = {path: row for volume in namespace_digest(testbed.server)
                for path, row in volume[2]}
        expected = {
            MOUNT + "/work/notes.txt": SyntheticContent(
                6_000, tag=("smoke", 1)),
            MOUNT + "/work/draft.tex": SyntheticContent(
                16_000, tag=("smoke", 2)),
            MOUNT + "/work/results.dat": SyntheticContent(
                40_000, tag=("smoke", 3)),
            MOUNT + "/work/report.txt": SyntheticContent(
                8_000, tag=("smoke", 4)),
        }
        for path, content in expected.items():
            assert path in rows, path
            _otype, _version, fingerprint, _children = rows[path]
            assert fingerprint == content.fingerprint, path

    def test_fault_events_recorded(self, observed):
        observatory, testbed = observed
        counts = observatory.trace.counts()
        # One event per plan action (window reverts are not injections).
        assert counts.get("fault_injected") == len(testbed.faults.plan)
        assert counts.get("node_crash", 0) == 1
        assert counts.get("node_restart", 0) == 1
        assert observatory.metrics.total("faults.injected") \
            == len(testbed.faults.plan)

    def test_restarted_client_revalidates_rapidly(self, observed):
        _observatory, testbed = observed
        # The restart presented surviving volume stamps, so validation
        # went through the batched volume path, not per-object checks.
        assert testbed.venus.validator.stats.attempts >= 1


class TestClientCrashRecovery:

    def test_converges_to_the_unfaulted_namespace(self):
        faulted = run_spec(get("client-crash")).testbed
        clean = run_spec(get("client-crash"), plan=FaultPlan([])).testbed
        assert faulted.faults.client_snapshot.cml_len >= 1
        assert namespace_digest(faulted.server) \
            == namespace_digest(clean.server)

    def test_no_record_applied_twice(self):
        testbed = run_spec(get("client-crash")).testbed
        server = testbed.server
        # Every surviving CML record was applied exactly once: any
        # re-shipped duplicates were filtered, never re-applied.
        applied = server.reintegrator._applied.values()
        seqnos = [seqno for marks in applied for seqno in marks]
        assert len(seqnos) == len(set(seqnos))
        assert len(testbed.venus.cml) == 0


class TestServerCrashRecovery:

    def test_converges_to_the_unfaulted_namespace(self):
        faulted = run_spec(get("server-crash")).testbed
        clean = run_spec(get("server-crash"), plan=FaultPlan([])).testbed
        assert faulted.server.crashes == 1
        assert namespace_digest(faulted.server) \
            == namespace_digest(clean.server)

    def test_volatile_state_lost_store_survives(self):
        testbed = run_spec(get("server-crash")).testbed
        server = testbed.server
        assert not server.crashed                 # restart happened
        assert len(testbed.venus.cml) == 0        # drain completed anyway
        assert server.reintegration_conflicts == 0


class TestIdempotentReplay:
    """Direct replay of a chunk the server already committed —
    the lost-reply retry a recovering client performs."""

    class _Ctx:
        peer = "laptop"

    def _testbed_with_records(self):
        testbed = make_testbed(MODEM, seed=0)
        tree = {MOUNT + "/work": ("dir", 0),
                MOUNT + "/work/a.txt": ("file", 2_000)}
        volume = populate_volume(testbed.server, MOUNT, tree)
        warm_cache(testbed.venus, testbed.server, volume)
        venus = testbed.venus
        sim = testbed.sim

        def session():
            yield from venus.write_file(
                MOUNT + "/work/a.txt",
                SyntheticContent(3_000, tag=("idem", 1)))
            yield from venus.write_file(
                MOUNT + "/work/b.txt",
                SyntheticContent(1_000, tag=("idem", 2)))

        sim.run(sim.process(session()))
        records = list(venus.cml)
        assert len(records) >= 2
        return testbed, records

    def _reintegrate(self, testbed, records):
        gen = testbed.server._h_reintegrate(
            self._Ctx(), {"records": records, "preshipped": []})
        return testbed.run(gen)

    def test_exact_replay_is_a_no_op(self):
        testbed, records = self._testbed_with_records()
        first = self._reintegrate(testbed, records)
        assert first["status"] == "ok"
        digest = namespace_digest(testbed.server)
        versions = dict(first["new_versions"])

        second = self._reintegrate(testbed, records)
        assert second["status"] == "ok"
        # Same acknowledgement, no state change, duplicates accounted.
        assert dict(second["new_versions"]) == versions
        assert namespace_digest(testbed.server) == digest
        assert testbed.server.reintegrator.duplicates_skipped \
            == len(records)

    def test_partially_duplicate_chunk_applies_only_the_fresh_tail(self):
        testbed, records = self._testbed_with_records()
        head, tail = records[:1], records[1:]
        first = self._reintegrate(testbed, head)
        assert first["status"] == "ok"

        replay = self._reintegrate(testbed, head + tail)
        assert replay["status"] == "ok"
        assert testbed.server.reintegrator.duplicates_skipped == len(head)
        # The fresh tail really landed.
        digest_rows = {path: row
                       for volume in namespace_digest(testbed.server)
                       for path, row in volume[2]}
        assert MOUNT + "/work/b.txt" in digest_rows

    def test_duplicate_store_does_not_conflict_with_fresh_store(self):
        """A re-shipped store on a fid followed by a fresh store on the
        same fid must not read as an update/update conflict: the bump
        the duplicate already applied was this client's own."""
        testbed, records = self._testbed_with_records()
        store_a = next(r for r in records if r.op.value == "store")
        first = self._reintegrate(testbed, [store_a])
        assert first["status"] == "ok"
        venus = testbed.venus
        sim = testbed.sim

        def overwrite():
            yield from venus.write_file(
                MOUNT + "/work/a.txt",
                SyntheticContent(4_000, tag=("idem", 3)))

        sim.run(sim.process(overwrite()))
        fresh = [r for r in venus.cml
                 if r.op.value == "store" and r.fid == store_a.fid
                 and r.seqno != store_a.seqno]
        assert fresh
        replay = self._reintegrate(testbed, [store_a] + fresh)
        assert replay["status"] == "ok", replay


class TestFaultsCli:

    def test_smoke_command_prints_timeline_and_summary(self, capsys):
        assert main(["run", "smoke"]) == 0
        printed = capsys.readouterr().out
        assert "6 action(s) injected" in printed
        assert "client_crash" in printed
        assert "Fault injection" in printed
        assert "Observability summary" in printed

    def test_unknown_fault_scenario_lists_the_choices(self, capsys):
        message = exits_2(["run", "nope", "--fingerprint"], capsys)
        assert "nope" in message
        assert "smoke" in message
        assert "client-crash" in message
        assert "server-crash" in message

    def test_unknown_obs_scenario_lists_the_choices(self, capsys):
        message = exits_2(["run", "nope", "--out", "timeline.jsonl"], capsys)
        assert "nope" in message
        assert "trickle" in message

