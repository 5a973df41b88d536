"""Endpoint CPU cost models.

On 1995 hardware the wire is not the only bottleneck: a DECpc 425SL
laptop spends milliseconds of CPU per packet in the protocol stack,
which is why the paper's Figure 1 measures only ~2 Mb/s of goodput on a
10 Mb/s Ethernet.  Each simulated host charges a fixed cost plus a
per-byte cost for every packet it sends or receives, and all packet
processing on a host is serialized (one CPU).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Host:
    """CPU cost parameters for one machine.

    Receive paths cost ``recv_multiplier`` times the send path — the
    extra copy and wakeup on the 1995 Mach receive path is what makes
    Figure 1's receive throughputs lower than its send throughputs.
    """

    name: str
    cpu_per_packet: float = 0.0005   # seconds of fixed protocol overhead
    cpu_per_byte: float = 5e-7       # seconds per payload byte (copies)
    recv_multiplier: float = 1.0

    def send_cost(self, size_bytes):
        """Seconds of CPU to emit one packet of ``size_bytes``."""
        return self.cpu_per_packet + size_bytes * self.cpu_per_byte

    def recv_cost(self, size_bytes):
        """Seconds of CPU to absorb one packet of ``size_bytes``."""
        return ((self.cpu_per_packet + size_bytes * self.cpu_per_byte)
                * self.recv_multiplier)


# Calibrated so that SFTP disk-to-disk transfer of 1 MB between these
# two machines approximates the paper's Figure 1 throughputs: the
# laptop is the bottleneck on fast networks, and its receive path is
# slower than its send path.
LAPTOP_1995 = Host(name="DECpc-425SL", cpu_per_packet=0.0004,
                   cpu_per_byte=2.9e-6, recv_multiplier=1.35)
SERVER_1995 = Host(name="DECstation-5000/200", cpu_per_packet=0.0002,
                   cpu_per_byte=1.2e-6, recv_multiplier=1.2)

#: An effectively free host, for tests that want wire-limited behaviour.
IDEAL = Host(name="ideal", cpu_per_packet=0.0, cpu_per_byte=0.0)
