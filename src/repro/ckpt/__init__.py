"""repro.ckpt: resumable fleet simulation.

Whole-fleet checkpoint/restore with streamed results and byte-identical
incremental extension.  A checkpointed run segments a fleet scenario
into day units; each unit is a fresh simulation restored from the
previous boundary's :class:`~repro.ckpt.state.ShardState`, so resident
memory follows the *active* slice of the fleet (one shard-day, with
idle clients swapped out to PR-2 snapshots) instead of the whole run,
and ``repro ckpt extend`` continues a finished checkpoint with output
byte-identical to a from-scratch run of the total duration.

Layers (each its own module):

* :mod:`repro.ckpt.state` — what crosses a day boundary, picklable;
* :mod:`repro.ckpt.driver` — the segmented day driver (plans, swap
  in/out, the one capture/restore path both run and extend share);
* :mod:`repro.ckpt.store` — the versioned on-disk format;
* :mod:`repro.ckpt.runner` — run/extend orchestration and reporting
  through the standard fleetd merge;
* :mod:`repro.ckpt.verify` — structural integrity + sampled replay.
"""

from repro.ckpt.driver import CkptOptions
from repro.ckpt.runner import (
    extend_checkpointed,
    report_from_store,
    run_checkpointed,
)
from repro.ckpt.store import CheckpointError, CheckpointStore
from repro.ckpt.verify import verify_checkpoint

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "CkptOptions",
    "extend_checkpointed",
    "report_from_store",
    "run_checkpointed",
    "verify_checkpoint",
]
