"""The file-operation vocabulary is what the workloads drive, no more.

Every ``TraceOp`` member must be emitted by some shipped replay
segment, and every ``CmlOp`` member must be logged by the trace
simulator over them.  A member that no workload drives fails here
instead of growing a Venus operation, a Vice handler and a
reintegration branch that only their own unit tests reach.
"""

from dataclasses import replace

from repro.trace import SEGMENT_SPECS, segment_by_name
from repro.trace.records import TraceOp
from repro.trace.simulator import CmlSimulator
from repro.venus.cml import CmlOp


class _LoggingSimulator(CmlSimulator):
    """The trace simulator, noting the op of every record it logs."""

    def __init__(self):
        super().__init__(aging_window=600.0)
        self.logged = set()

    def _append(self, cml, record, now):
        self.logged.add(record.op)
        super()._append(cml, record, now)


def test_shipped_segments_drive_every_op_and_nothing_else():
    simulator = _LoggingSimulator()
    emitted = set()
    for name in SEGMENT_SPECS:
        segment = segment_by_name(name)
        emitted.update(record.op for record in segment.records)
        # Only updates reach the log; the references would only cost
        # the simulator an age-out check each.
        simulator.run(replace(segment, records=[
            record for record in segment.records if record.is_update]))
    assert emitted == set(TraceOp)
    assert simulator.logged == set(CmlOp)
