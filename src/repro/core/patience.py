"""The user patience model (section 4.4.4).

A user's patience threshold tau for an object grows with its perceived
importance, captured by hoard priority P.  Conjecturing that patience,
like other human processes, is logarithmic in sensitivity, the paper
posits::

    tau = alpha + beta * e**(gamma * P)

with alpha = 2 s (a floor: even for an unimportant object the user
prefers a short delay to a miss), beta = 1, gamma = 0.01.  A miss whose
estimated service time falls below tau is serviced transparently;
above it, Venus returns a miss and records the object for the user.
The same comparison pre-approves fetches during hoard walks
(section 4.4.3).
"""

import math

#: The paper's beta and gamma; only alpha varies between workloads.
BETA = 1.0
GAMMA = 0.01


class PatienceModel:
    """tau(P) = alpha + BETA * exp(GAMMA * P), in seconds."""

    def __init__(self, alpha=2.0):
        self.alpha = alpha

    def threshold(self, priority):
        """Patience in seconds for an object of hoard priority P."""
        return self.alpha + BETA * math.exp(GAMMA * priority)

    def approves(self, priority, estimated_seconds):
        """True if a wait of ``estimated_seconds`` is acceptable."""
        return estimated_seconds <= self.threshold(priority)

    def max_file_bytes(self, priority, bandwidth_bps):
        """Largest file fetchable within patience at ``bandwidth_bps``.

        This is the Figure 7 transformation: tau expressed as a file
        size at a given (nominal) bandwidth, e.g. 60 s at 64 Kb/s is
        480 KB.
        """
        return self.threshold(priority) * bandwidth_bps / 8.0
