#!/usr/bin/env python
"""User-assisted miss handling on a weak link (section 4.4).

Recreates the paper's Figure 5/6 interactions programmatically:

1. a cache miss on a large file is refused because its service time
   exceeds the patience threshold, and is recorded;
2. the user reviews recorded misses (Figure 5) and hoards the file at
   a high priority;
3. the next hoard walk shows the Figure 6 screen: cheap fetches are
   pre-approved, expensive ones are put to the user, and a scripted
   user approves one and says "stop asking" to another.

Run:  python examples/hoard_advice.py
"""

from repro.net import MODEM
from repro.spec.testbed import make_testbed, populate_volume
from repro.venus import CacheMissError, ScriptedUser, VenusConfig

M = "/coda/usr/dave"


def main():
    user = ScriptedUser(
        approvals={M + "/tools/compiler": True,
                   M + "/media/demo.video": "stop"},
        hoard_additions=[(M + "/papers/s15.bib", 600, False)],
        delay_seconds=8.0)
    config = VenusConfig(start_daemons=False)
    testbed = make_testbed(MODEM, venus_config=config, user=user)
    tree = {
        M + "/papers": ("dir", 0),
        M + "/papers/s15.bib": ("file", 45_000),
        M + "/tools": ("dir", 0),
        M + "/tools/compiler": ("file", 300_000),
        M + "/tools/grep": ("file", 2_000),
        M + "/media": ("dir", 0),
        M + "/media/demo.video": ("file", 2_000_000),
    }
    populate_volume(testbed.server, M, tree)
    testbed.venus.learn_mounts(testbed.server.registry)
    venus, sim = testbed.venus, testbed.sim

    def session():
        yield from venus.connect()
        print("state=%s, estimated %.0f b/s\n"
              % (venus.state.state.value, venus.current_bandwidth_bps()))

        # A miss beyond patience: refused and recorded.
        try:
            yield from venus.read_file(M + "/papers/s15.bib",
                                       program="emacs")
        except CacheMissError as miss:
            print("MISS  %s (estimated %.0fs > patience)"
                  % (miss.path, miss.estimated_seconds))

        # A tiny file: fetched transparently despite the modem.
        content = yield from venus.read_file(M + "/tools/grep",
                                             program="csh")
        print("HIT   fetched %s (%d bytes) transparently\n"
              % (M + "/tools/grep", content.size))

        # Figure 5: review misses; the user hoards the bibliography.
        additions = yield from venus.review_misses()
        print("Figure 5 review -> hoard additions: %s" % additions)
        venus.hoard(M + "/tools/compiler", 100)
        venus.hoard(M + "/media/demo.video", 100)

        # Figure 6: the walk's interactive phase.
        report = yield from venus.hoard_walk()
        print("\nFigure 6 walk: %d candidates, %d pre-approved, "
              "%d user-approved, %d suppressed, %d fetched (%d bytes)"
              % (report.candidates, report.preapproved,
                 report.user_approved, report.suppressed,
                 report.fetched, report.fetched_bytes))
        print("user was asked about: %s" % user.asked)

        # The bibliography now reads from the cache instantly.
        content = yield from venus.read_file(M + "/papers/s15.bib",
                                             program="emacs")
        print("\nafter the walk: s15.bib read from cache (%d bytes)"
              % content.size)
        # The suppressed video will not be asked about again.
        report2 = yield from venus.hoard_walk()
        print("next walk asks nothing further: candidates=%d, asked=%s"
              % (report2.candidates, user.asked))

    sim.run(sim.process(session()))


if __name__ == "__main__":
    main()
