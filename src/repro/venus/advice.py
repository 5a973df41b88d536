"""User advice interfaces (Figures 5 and 6), as programmatic models.

The paper's Venus shows two screens: one listing recent cache misses
so the user can add objects to the hoard database, and one letting the
user approve or suppress fetches during a weakly-connected hoard walk.
Here the "user" is a :class:`UserModel` object; the default
:class:`TimeoutUser` reproduces the paper's unattended behaviour ("if
no input is provided within a certain time, the screen disappears and
all the listed objects are fetched").
"""

from dataclasses import dataclass


@dataclass
class FetchCandidate:
    """One row of the Figure 6 screen."""

    path: str
    priority: int
    size_bytes: int
    cost_seconds: float
    preapproved: bool


class UserModel:
    """Base class: what Venus asks its user.

    ``delay_seconds`` models the time the user (or the screen timeout)
    takes to respond; Venus waits that long in simulated time before
    using the answers.
    """

    delay_seconds = 0.0

    def approve_fetches(self, candidates):
        """Decide the non-preapproved rows of the Figure 6 screen.

        Returns ``(approved_paths, suppressed_paths)``; suppressed
        paths are not asked about again until strong connectivity
        ("Stop Asking").
        """
        raise NotImplementedError

    def review_misses(self, misses):
        """React to the Figure 5 screen: a list of MissRecords.

        Returns a list of ``(path, priority, children)`` hoard
        additions.
        """
        return []


class TimeoutUser(UserModel):
    """An unattended client: the screen times out, everything fetches."""

    delay_seconds = 60.0        # Figure 6 screen timeout

    def approve_fetches(self, candidates):
        return [c.path for c in candidates if not c.preapproved], []


class ScriptedUser(UserModel):
    """Deterministic decisions for tests and experiments.

    ``approvals`` maps path -> True (fetch) / False (skip) / "stop"
    (suppress until strongly connected).  ``hoard_additions`` is
    returned once from :meth:`review_misses`.
    """

    def __init__(self, approvals=None, hoard_additions=None,
                 delay_seconds=5.0):
        self.approvals = dict(approvals or {})
        self.hoard_additions = list(hoard_additions or [])
        self.delay_seconds = delay_seconds
        self.asked = []

    def approve_fetches(self, candidates):
        approved = []
        suppressed = []
        for candidate in candidates:
            if candidate.preapproved:
                continue
            self.asked.append(candidate.path)
            decision = self.approvals.get(candidate.path, False)
            if decision == "stop":
                suppressed.append(candidate.path)
            elif decision:
                approved.append(candidate.path)
        return approved, suppressed

    def review_misses(self, misses):
        additions, self.hoard_additions = self.hoard_additions, []
        return additions
