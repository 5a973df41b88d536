"""Named network profiles matching the paper's experimental networks.

The paper evaluates over Ethernet (10 Mb/s), WaveLan (2 Mb/s), ISDN
(64 Kb/s, emulated), Modem (9.6 Kb/s over a phone line), and mentions
SLIP at 1.2 Kb/s as the usability floor.

Two modelling notes:

* Modem and SLIP lines are asynchronous serial: each byte costs 10 bits
  (8 data + start/stop framing), so nominal 9.6 Kb/s carries at most
  960 B/s.  This is why the paper's Figure 1 measures only ~6.8 Kb/s of
  goodput at 9.6 Kb/s nominal once packet headers are added.
* Latency is one-way propagation plus fixed per-hop processing,
  approximating the measured RTTs of each medium in 1995.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkProfile:
    """Parameters describing one class of network."""

    name: str
    label: str               # the single-letter tag the paper's graphs use
    bandwidth_bps: float     # nominal signalling rate
    latency: float           # one-way propagation + modem buffering, seconds
    loss_rate: float
    bits_per_byte: int       # 10 on async serial lines, 8 elsewhere

    def link_kwargs(self):
        """Keyword arguments for :class:`repro.net.link.Link`."""
        return {
            "bandwidth_bps": self.bandwidth_bps,
            "latency": self.latency,
            "loss_rate": self.loss_rate,
            "bits_per_byte": self.bits_per_byte,
        }

    def __str__(self):
        if self.bandwidth_bps >= 1e6:
            rate = "%g Mb/s" % (self.bandwidth_bps / 1e6)
        else:
            rate = "%g Kb/s" % (self.bandwidth_bps / 1e3)
        return "%s (%s)" % (self.name, rate)


ETHERNET = NetworkProfile(
    name="Ethernet", label="E",
    bandwidth_bps=10e6, latency=0.0005, loss_rate=0.0, bits_per_byte=8)

WAVELAN = NetworkProfile(
    name="WaveLan", label="W",
    bandwidth_bps=2e6, latency=0.002, loss_rate=0.0, bits_per_byte=8)

ISDN = NetworkProfile(
    name="ISDN", label="I",
    bandwidth_bps=64e3, latency=0.010, loss_rate=0.0, bits_per_byte=8)

MODEM = NetworkProfile(
    name="Modem", label="M",
    bandwidth_bps=9600, latency=0.050, loss_rate=0.0, bits_per_byte=10)

SLIP_1200 = NetworkProfile(
    name="SLIP-1200", label="S",
    bandwidth_bps=1200, latency=0.050, loss_rate=0.0, bits_per_byte=10)

#: The four networks of the paper's evaluation section, fastest first.
PROFILES = (ETHERNET, WAVELAN, ISDN, MODEM)

_BY_NAME = {p.name.lower(): p for p in PROFILES + (SLIP_1200,)}


def profile_by_name(name):
    """Look up a profile by case-insensitive name."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise KeyError("unknown network profile %r (have %s)"
                       % (name, ", ".join(sorted(_BY_NAME)))) from None
