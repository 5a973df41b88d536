"""File contents, real or synthetic.

Benchmarks move megabytes of simulated file data whose bytes are
irrelevant — only sizes and identities matter for transfer times and
conflict detection.  :class:`SyntheticContent` carries a size and a
fingerprint without allocating; :class:`ByteContent` holds real bytes
for code that uses the library as an actual (in-memory) file store.
"""


class Content:
    """Abstract file contents: a size plus an identity fingerprint."""

    size = 0

    @staticmethod
    def of(value):
        """Coerce bytes/str/int/Content into a Content."""
        if isinstance(value, Content):
            return value
        if isinstance(value, bytes):
            return ByteContent(value)
        if isinstance(value, str):
            return ByteContent(value.encode("utf-8"))
        if isinstance(value, int):
            return SyntheticContent(value)
        raise TypeError("cannot make Content from %r" % type(value))

    @staticmethod
    def empty():
        return ByteContent(b"")

    def __eq__(self, other):
        return (isinstance(other, Content)
                and self.size == other.size
                and self.fingerprint == other.fingerprint)

    def __hash__(self):
        return hash((self.size, self.fingerprint))


class ByteContent(Content):
    """Contents backed by real bytes."""

    def __init__(self, data):
        if not isinstance(data, bytes):
            raise TypeError("ByteContent requires bytes")
        self.data = data

    @property
    def size(self):
        return len(self.data)

    @property
    def fingerprint(self):
        return hash(self.data)

    def __repr__(self):
        return "<ByteContent %dB>" % self.size


class SyntheticContent(Content):
    """Contents identified by ``(size, tag)`` without materialized bytes.

    The ``tag`` plays the role of a checksum: two synthetic contents
    with the same size and tag are "the same bytes".
    """

    _counter = 0

    def __init__(self, size, tag=None):
        if size < 0:
            raise ValueError("negative size")
        self.size = size
        if tag is None:
            SyntheticContent._counter += 1
            tag = ("auto", SyntheticContent._counter)
        self.tag = tag

    @property
    def fingerprint(self):
        return self.tag

    def __repr__(self):
        return "<SyntheticContent %dB tag=%r>" % (self.size, self.tag)
