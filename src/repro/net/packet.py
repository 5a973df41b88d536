"""Datagrams carried by the simulated network."""


class Datagram:
    """An unreliable datagram (the UDP analogue).

    ``size`` is the on-the-wire size in bytes including all headers;
    it, not the payload object, determines transmission time.  The
    ``payload`` is any Python object — transports put their own packet
    structures here.  A datagram's identity is the object itself.
    """

    __slots__ = ("src", "src_port", "dst", "dst_port", "payload", "size")

    def __init__(self, src, src_port, dst, dst_port, payload, size):
        if size <= 0:
            raise ValueError("datagram size must be positive: %r" % size)
        self.src = src
        self.src_port = src_port
        self.dst = dst
        self.dst_port = dst_port
        self.payload = payload
        self.size = size

    def __repr__(self):
        return "<Datagram %s:%d->%s:%d %dB>" % (
            self.src, self.src_port, self.dst, self.dst_port, self.size)
