"""Venus: the client cache manager.

Venus mediates all file access on a client.  It runs in one of three
states (Figure 2): *hoarding* when strongly connected, *emulating* when
disconnected, and *write disconnected* when weakly connected.  This
package contains the cache, the hoard database, the client modify log
with its optimizations, hoard walking, cache-miss handling with the
user patience model, and the Venus facade that ties them together.
"""

from repro.venus.advice import (
    ScriptedUser,
    TimeoutUser,
    UserModel,
)
from repro.venus.cache import CacheEntry, CacheManager
from repro.venus.cml import ClientModifyLog, CmlOp, CmlRecord
from repro.venus.errors import CacheMissError, NoSpaceError, OfflineError
from repro.venus.hdb import HoardDatabase, HoardEntry
from repro.venus.misshandler import MissRecord
from repro.venus.repair import Conflict, ConflictStore, Repairer
from repro.venus.states import VenusState
from repro.venus.venus import Venus, VenusConfig

__all__ = [
    "CacheEntry",
    "CacheManager",
    "CacheMissError",
    "ClientModifyLog",
    "Conflict",
    "ConflictStore",
    "CmlOp",
    "CmlRecord",
    "HoardDatabase",
    "HoardEntry",
    "MissRecord",
    "NoSpaceError",
    "OfflineError",
    "Repairer",
    "ScriptedUser",
    "TimeoutUser",
    "UserModel",
    "Venus",
    "VenusConfig",
    "VenusState",
]
