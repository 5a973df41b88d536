"""Cost-aware adaptation (the paper's stated future work).

"Our work so far has assumed that performance is the only metric of
cost.  In practice, many networks used in mobile computing cost real
money.  We therefore plan to explore techniques by which Venus can
electronically inquire about network cost, and base its adaptation on
both cost and quality." (section 8)

This module implements that plan:

* a :class:`NetworkTariff` describes what a link costs — per megabyte
  (cellular data), per connected minute (long-distance phone), or
  nothing (the office LAN);
* a :class:`CostAwarePolicy` folds the tariff into Venus's decisions:

  - *aging*: on per-byte tariffs the aging window stretches, giving
    log optimizations more time to cancel records before they are
    paid for;
  - *miss handling*: a fetch must pass a *spending* threshold as well
    as the time-patience threshold; like patience, willingness to pay
    grows exponentially with hoard priority;
  - *drain preference*: on per-minute tariffs the right strategy
    reverses — ship everything quickly and hang up, so the policy
    recommends immediate draining instead of trickling.

What a session actually spent is ``Venus.network_cost()``: the bytes
its endpoint sent and its connected seconds, priced by the tariff.
"""

import math
from dataclasses import dataclass

MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class NetworkTariff:
    """What using a network costs, in abstract currency units."""

    name: str
    per_mb: float = 0.0        # per megabyte transferred
    per_minute: float = 0.0    # per minute of connection time

    def cost_of(self, nbytes=0, connected_seconds=0.0):
        """Total cost of moving ``nbytes`` over ``connected_seconds``."""
        return (self.per_mb * nbytes / MB
                + self.per_minute * connected_seconds / 60.0)


#: Common 1995 tariffs (currency units are "dollars-ish").
FREE = NetworkTariff("free")
LONG_DISTANCE = NetworkTariff("long-distance-phone", per_minute=0.12)
CELLULAR = NetworkTariff("cellular-data", per_mb=2.50)

#: Tariff name -> tariff: how a spec's ``venus.tariff`` names one.
TARIFFS = {tariff.name: tariff for tariff in (FREE, CELLULAR, LONG_DISTANCE)}


#: ``spend(P) = SPEND_ALPHA + SPEND_BETA * e**(SPEND_GAMMA * P)``, the
#: analogue of the patience model: the most a user will pay to fetch
#: one object of hoard priority P — about a cent for an unhoarded
#: object and a few dollars at priority 900.
SPEND_ALPHA = 0.01
SPEND_BETA = 0.002
SPEND_GAMMA = 0.01
#: The aging window stretches by this per unit of per-MB tariff...
AGING_STRETCH_PER_UNIT = 2.0
#: ...up to this factor.
MAX_AGING_STRETCH = 8.0


class CostAwarePolicy:
    """Scales Venus's adaptive knobs by what the network costs."""

    def __init__(self, tariff=FREE):
        self.tariff = tariff

    # -- miss handling ---------------------------------------------------

    def spend_threshold(self, priority):
        """Most the user will pay to fetch one object of priority P."""
        return SPEND_ALPHA + SPEND_BETA * math.exp(SPEND_GAMMA * priority)

    def fetch_cost(self, size_bytes):
        """Money a fetch of ``size_bytes`` costs on this tariff."""
        return self.tariff.cost_of(nbytes=size_bytes)

    def approves_fetch(self, priority, size_bytes):
        """True if fetching is affordable at this priority."""
        return self.fetch_cost(size_bytes) <= self.spend_threshold(priority)

    # -- update propagation -----------------------------------------------

    def effective_aging_window(self, base_window):
        """Stretch A on per-byte tariffs: every cancelled record is
        money unspent."""
        stretch = 1.0 + AGING_STRETCH_PER_UNIT * self.tariff.per_mb
        return base_window * min(stretch, MAX_AGING_STRETCH)

    @property
    def prefers_fast_drain(self):
        """Per-minute tariffs reward finishing quickly and hanging up
        (the 'terminate a long distance phone call' case of 4.3.2)."""
        return self.tariff.per_minute > 0.0 and self.tariff.per_mb == 0.0
