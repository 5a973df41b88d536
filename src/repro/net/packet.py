"""Datagrams carried by the simulated network."""

from dataclasses import dataclass, field
from itertools import count

_datagram_ids = count(1)


@dataclass
class Datagram:
    """An unreliable datagram (the UDP analogue).

    ``size`` is the on-the-wire size in bytes including all headers;
    it, not the payload object, determines transmission time.  The
    ``payload`` is any Python object — transports put their own packet
    structures here.
    """

    src: str
    src_port: int
    dst: str
    dst_port: int
    payload: object
    size: int
    ident: int = field(default_factory=lambda: next(_datagram_ids))

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError("datagram size must be positive: %r" % self.size)

    def __repr__(self):
        return "<Datagram #%d %s:%d->%s:%d %dB>" % (
            self.ident, self.src, self.src_port,
            self.dst, self.dst_port, self.size)
