#!/usr/bin/env python
"""A day in the life of a 1995 mobile user (the paper's motivation).

Morning at the office on Ethernet (hoarding), a commute with no
network at all (emulating), an evening at home behind a 9.6 Kb/s modem
(write disconnected, updates trickling), and back to the office the
next day.  Also shows rapid cache validation doing its job: after each
reconnection, one volume-stamp RPC revalidates the whole cache.

Run:  python examples/mobile_commute.py
"""

from repro.net import ETHERNET, MODEM
from repro.spec.testbed import make_testbed, populate_volume, warm_cache
from repro.venus import VenusConfig

M = "/coda/usr/carol"


def switch_network(link, profile):
    link.set_bandwidth(profile.bandwidth_bps)
    link.forward.latency = link.backward.latency = profile.latency
    link.forward.bits_per_byte = profile.bits_per_byte
    link.backward.bits_per_byte = profile.bits_per_byte


def main():
    testbed = make_testbed(ETHERNET, venus_config=VenusConfig())
    tree = {M + "/thesis": ("dir", 0)}
    for chapter in range(1, 6):
        tree[M + "/thesis/ch%d.tex" % chapter] = ("file", 30_000)
    volume = populate_volume(testbed.server, M, tree)
    warm_cache(testbed.venus, testbed.server, volume)
    venus, sim, link = testbed.venus, testbed.sim, testbed.link

    venus.state.on_transition(
        lambda old, new: print("[%8.0fs]   state: %s -> %s"
                               % (sim.now, old.value, new.value)))

    def stamp_stats(label):
        stats = venus.validator.stats
        print("[%8.0fs] %s: %d volume validations, %d successes, "
              "%d object checks saved"
              % (sim.now, label, stats.attempts, stats.successes,
                 stats.objects_saved))

    def day():
        # ---- office morning -----------------------------------------
        yield from venus.connect()
        yield from venus.hoard_walk()      # caches the volume stamp
        yield from venus.write_file(M + "/thesis/ch3.tex",
                                    b"x" * 31_000)
        print("[%8.0fs] office: edited ch3 (wrote through)" % sim.now)

        # ---- commute: no network ------------------------------------
        link.set_up(False)
        venus.handle_disconnection()
        yield from venus.write_file(M + "/thesis/ch4.tex",
                                    b"y" * 32_000)
        print("[%8.0fs] train: edited ch4 against the cache (CML %dB)"
              % (sim.now, venus.cml.size_bytes))

        # ---- home: modem --------------------------------------------
        switch_network(link, MODEM)
        link.set_up(True)
        yield from venus.connect()
        stamp_stats("home reconnection")
        print("[%8.0fs] home: estimated %.0f b/s, trickling..."
              % (sim.now, venus.current_bandwidth_bps()))
        yield sim.sleep(1_200.0)
        print("[%8.0fs] home: CML now %dB (shipped %dB overnight)"
              % (sim.now, venus.cml.size_bytes,
                 venus.trickle.stats.bytes_shipped))

        # ---- overnight disconnect, office morning -------------------
        link.set_up(False)
        venus.handle_disconnection()
        yield sim.sleep(8 * 3600.0)
        switch_network(link, ETHERNET)
        link.set_up(True)
        yield from venus.connect()
        stamp_stats("office reconnection")
        yield sim.sleep(400.0)           # probe confirms Ethernet
        print("[%8.0fs] office again: state=%s, CML=%dB"
              % (sim.now, venus.state.state.value, venus.cml.size_bytes))

    sim.run(sim.process(day()))


if __name__ == "__main__":
    main()
