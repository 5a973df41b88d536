"""The Coda file server.

A small collection of trusted servers exports the volume name space to
untrusted clients.  This package provides the Vice RPC interface
(fetch, store, directory operations), the callback machinery at both
object and volume granularity (section 4.2), and the transactional
reintegration endpoint that replays client modify logs atomically
(section 4.3.3), including fragmented transfer of large files with
resumption (section 4.3.5).
"""

from repro.server.callbacks import CallbackRegistry
from repro.server.reintegration import ConflictError, ReintegrationOutcome
from repro.server.store import FragmentStore
from repro.server.vice import CodaServer

__all__ = [
    "CallbackRegistry",
    "CodaServer",
    "ConflictError",
    "FragmentStore",
    "ReintegrationOutcome",
]
