"""Venus states and transitions (Figure 2).

Venus is *hoarding* when strongly connected, *emulating* when
disconnected, and *write disconnected* when weakly connected.  The
original transient "reintegrating" state became the stable write
disconnected state when trickle reintegration made update propagation
an ongoing background activity (section 4.3.2).

The legal transitions:

* hoarding -> emulating          on disconnection
* hoarding -> write disconnected on weak connectivity
* emulating -> write disconnected on ANY connection, however strong
* write disconnected -> emulating on disconnection
* write disconnected -> hoarding  once strongly connected AND all
  outstanding updates have been reintegrated

There is deliberately no emulating -> hoarding edge: a reconnecting
client always passes through write disconnected while its CML drains.
"""

import enum


class VenusState(enum.Enum):
    HOARDING = "hoarding"
    EMULATING = "emulating"
    WRITE_DISCONNECTED = "write_disconnected"


_LEGAL = {
    (VenusState.HOARDING, VenusState.EMULATING),
    (VenusState.HOARDING, VenusState.WRITE_DISCONNECTED),
    (VenusState.EMULATING, VenusState.WRITE_DISCONNECTED),
    (VenusState.WRITE_DISCONNECTED, VenusState.EMULATING),
    (VenusState.WRITE_DISCONNECTED, VenusState.HOARDING),
}


class IllegalTransition(Exception):
    pass


class VenusStateMachine:
    """Tracks the current state, enforcing Figure 2's edges."""

    def __init__(self, initial=VenusState.EMULATING):
        self.state = initial
        self.transitions = []     # (time, from, to) history
        self._listeners = []

    def on_transition(self, callback):
        """Register ``callback(old, new)`` for every transition."""
        self._listeners.append(callback)

    def transition(self, new_state, now=0.0):
        """Move to ``new_state``; no-op if already there."""
        if new_state is self.state:
            return False
        if (self.state, new_state) not in _LEGAL:
            raise IllegalTransition(
                "%s -> %s" % (self.state.value, new_state.value))
        old = self.state
        self.state = new_state
        self.transitions.append((now, old, new_state))
        for listener in self._listeners:
            listener(old, new_state)
        return True

    @property
    def connected(self):
        return self.state is not VenusState.EMULATING

