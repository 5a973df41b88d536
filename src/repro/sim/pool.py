"""Object pooling was tried and removed (DESIGN.md, "Kernel")."""


def default_pooling():
    """Always ``"off"``: events and datagrams are allocated where used.

    Kept only for ``perfbench/run.py``'s result envelope; see
    :func:`repro.sim.queue.default_kind` for when it goes.
    """
    return "off"
