"""The paper's primary contribution: the adaptive policies.

Four mechanisms let Coda span four orders of magnitude of network
bandwidth (section 4):

* :mod:`repro.core.adaptation` — classifying connectivity from the
  transport's shared RTT/bandwidth estimates, with hysteresis;
* :mod:`repro.core.validation` — rapid cache validation with volume
  version stamps and volume callbacks;
* :mod:`repro.core.trickle` — trickle reintegration with the aging
  window, reintegration barrier, adaptive chunking and fragmentation;
* :mod:`repro.core.patience` — the user patience model that decides
  which cache misses are serviced transparently.
"""

# The client is built from these mechanisms, and core.trickle reads its
# CML types: loading repro.venus first lets a fresh ``import repro.core``
# resolve that cycle from the client's side.
import repro.venus  # noqa: F401
from repro.core.adaptation import ConnectivityMonitor, ConnectionStrength
from repro.core.cost import (
    CELLULAR,
    FREE,
    LONG_DISTANCE,
    CostAwarePolicy,
    NetworkTariff,
)
from repro.core.patience import PatienceModel
from repro.core.trickle import TrickleReintegrator
from repro.core.validation import RapidValidator, ValidationStats

__all__ = [
    "CELLULAR",
    "ConnectionStrength",
    "ConnectivityMonitor",
    "CostAwarePolicy",
    "FREE",
    "LONG_DISTANCE",
    "NetworkTariff",
    "PatienceModel",
    "RapidValidator",
    "TrickleReintegrator",
    "ValidationStats",
]
