#!/usr/bin/env python
"""Trickle reintegration over a 9.6 Kb/s modem (sections 4.3.3-4.3.5).

A write-disconnected client edits files while the trickle daemon
propagates aged updates in the background.  Watch the mechanisms at
work:

* a file overwritten within the aging window never touches the wire
  (log optimization);
* the backlog drains in adaptively sized chunks;
* a file larger than one chunk ships as resumable fragments;
* a foreground cache miss is served promptly even while reintegration
  is running.

Run:  python examples/weak_link_trickle.py
"""

from repro.fs import SyntheticContent
from repro.net import MODEM
from repro.spec.testbed import make_testbed, populate_volume, warm_cache
from repro.venus import VenusConfig

M = "/coda/usr/bob"


def main():
    config = VenusConfig(aging_window=300.0, chunk_seconds=30.0,
                         daemon_period=5.0)
    testbed = make_testbed(MODEM, venus_config=config)
    tree = {
        M + "/work": ("dir", 0),
        M + "/work/draft.tex": ("file", 15_000),
        M + "/work/figure.eps": ("file", 40_000),
    }
    volume = populate_volume(testbed.server, M, tree)
    warm_cache(testbed.venus, testbed.server, volume)
    venus = testbed.venus
    sim = testbed.sim

    def on_server(name):
        d = volume.require(volume.root.lookup("work"))
        return d.lookup(name) is not None

    def report(label):
        stats = venus.trickle.stats
        print("[%7.0fs] %-34s CML=%5dB shipped=%6dB chunks=%d "
              "fragments=%d optimized=%dB"
              % (sim.now, label, venus.cml.size_bytes,
                 stats.bytes_shipped, stats.chunks_committed,
                 stats.fragments_shipped,
                 venus.cml.stats.optimized_bytes))

    def session():
        yield from venus.connect()
        print("state = %s at %.0f b/s estimated"
              % (venus.state.state.value, venus.current_bandwidth_bps()))

        # Edit a draft twice within the aging window: the first store
        # is cancelled before it ever reaches the modem.
        yield from venus.write_file(M + "/work/draft.tex",
                                    SyntheticContent(16_000))
        report("first save of draft.tex")
        yield sim.sleep(120.0)
        yield from venus.write_file(M + "/work/draft.tex",
                                    SyntheticContent(17_000))
        report("second save (first one cancelled)")

        # A large result file: bigger than one chunk, so it will ship
        # as fragments once it ages.
        yield from venus.write_file(M + "/work/results.dat",
                                    SyntheticContent(120_000))
        report("wrote 120 KB results.dat")

        # Let aging and trickle run.
        yield sim.sleep(600.0)
        report("aging window passed")

        # Foreground miss while reintegration is busy: the chunk bound
        # keeps the wait tolerable.
        entry = yield from venus.stat(M + "/work/figure.eps")
        venus.cache.remove(entry.fid)
        venus.hoard(M + "/work/figure.eps", 900)
        start = sim.now
        yield from venus.read_file(M + "/work/figure.eps")
        print("[%7.0fs] foreground miss on figure.eps served in %.0fs"
              % (sim.now, sim.now - start))

        yield sim.sleep(900.0)
        report("background drain complete")
        print("draft.tex on server: %s   results.dat on server: %s"
              % (on_server("draft.tex"), on_server("results.dat")))

    sim.run(sim.process(session()))


if __name__ == "__main__":
    main()
