#!/usr/bin/env python
"""Update conflicts and their repair (section 2.2).

Two clients share a volume.  The laptop disconnects and edits a file
that the desktop also edits.  On reconnection, trickle reintegration
detects the update/update conflict, confines it (the server keeps the
desktop's version; the laptop's version is parked, not lost), and the
user repairs it — once keeping "theirs", once keeping "mine".

Run:  python examples/conflict_repair.py
"""

from repro.net import ETHERNET, Network
from repro.net.host import LAPTOP_1995, SERVER_1995
from repro.server import CodaServer
from repro.sim import Simulator
from repro.spec.testbed import populate_volume, warm_cache
from repro.venus import Venus, VenusConfig

M = "/coda/project/shared"


def main():
    sim = Simulator()
    net = Network(sim)
    server = CodaServer(sim, net, "server", SERVER_1995)
    tree = {M + "/doc": ("dir", 0),
            M + "/doc/plan.txt": ("file", 2_000),
            M + "/doc/notes.txt": ("file", 1_000)}
    volume = populate_volume(server, M, tree)
    links, clients = {}, {}
    for name in ("desktop", "laptop"):
        links[name] = net.add_link(name, "server", profile=ETHERNET)
        clients[name] = Venus(sim, net, name, "server", LAPTOP_1995,
                              config=VenusConfig())
        warm_cache(clients[name], server, volume)
    desktop, laptop = clients["desktop"], clients["laptop"]

    def server_text(name):
        d = volume.require(volume.root.lookup("doc"))
        return bytes(volume.require(d.lookup(name)).content.data)

    def story():
        yield from desktop.connect()
        yield from laptop.connect()

        # The laptop leaves and edits both files offline.
        links["laptop"].set_up(False)
        laptop.handle_disconnection()
        yield from laptop.write_file(M + "/doc/plan.txt",
                                     b"LAPTOP: new plan")
        yield from laptop.write_file(M + "/doc/notes.txt",
                                     b"LAPTOP: notes v2")
        # Meanwhile the desktop edits the same two files.
        yield from desktop.write_file(M + "/doc/plan.txt",
                                      b"DESKTOP: better plan")
        yield from desktop.write_file(M + "/doc/notes.txt",
                                      b"DESKTOP: notes v2")

        # Reconnect: both updates conflict; both are confined.
        links["laptop"].set_up(True)
        yield from laptop.connect()
        yield sim.timeout(60.0)
        conflicts = laptop.list_conflicts()
        print("conflicts detected: %d" % len(conflicts))
        for conflict in conflicts:
            print("   ", conflict.describe())
        print("server meanwhile holds: plan=%r notes=%r"
              % (server_text("plan.txt"), server_text("notes.txt")))

        # Repair: keep theirs for the plan, mine for the notes.
        plan = [c for c in conflicts if "plan" in (c.path or "")][0]
        notes = [c for c in conflicts if "notes" in (c.path or "")][0]
        yield from laptop.repair(plan.ident, "theirs")
        yield from laptop.repair(notes.ident, "mine")
        yield sim.timeout(60.0)
        print("\nafter repair:")
        print("   plan  =", server_text("plan.txt"))
        print("   notes =", server_text("notes.txt"))
        print("   unresolved conflicts:", len(laptop.list_conflicts()))

    sim.run(sim.process(story()))


if __name__ == "__main__":
    main()
