"""The reference kernel: how slow is the box running right now?

This shared 2-core box slows memory-bound Python down by 10-40 % for
minutes at a time (neighbours on the same host), and the simulator is
memory-bound Python.  No statistic over the repetitions of one run can
remove a slow phase that outlasts the run, so the parent times a fixed
kernel of the same nature beside every repetition and the timing
metrics are reported relative to it (see ``run.normalise``).

The kernel shares no code with ``src/repro``: it chases pointers
through ~60 MB of small objects while pushing and popping a heap and
switching into a generator, which is what a discrete-event simulation
does to the memory system.  Its work is fixed, so its time moves only
with the host.

It runs in a process of its own (``python -m perfbench.reference``
answers each line on stdin with one timing), idle while a repetition
runs: a child forked from a parent that held the working set would
report the parent's pages in its ``ru_maxrss``.
"""

import gc
import heapq
import random
import subprocess
import sys
import time

#: Seconds the kernel takes on this box when nothing disturbs it (the
#: fastest of 150 runs).  Timings are scaled by ``NOMINAL / measured``,
#: so reported seconds read as seconds of a quiet box.
NOMINAL = 0.18

NODES = 400_000
STEPS = 100_000


class _Node:
    __slots__ = ("key", "next", "payload")

    def __init__(self, key):
        self.key = key
        self.next = None
        self.payload = [key, str(key)]


def _ticker():
    count = 0
    while True:
        count = (yield count) + 1


class Reference:
    """Build the kernel's working set once; ``seconds()`` times one pass."""

    def __init__(self):
        order = list(range(NODES))
        random.Random(1).shuffle(order)
        self.nodes = [_Node(key) for key in range(NODES)]
        for here, there in zip(order, order[1:] + order[:1]):
            self.nodes[here].next = self.nodes[there]
        self.table = {node.key: node for node in self.nodes}
        # The working set never dies: keep the collector from walking it
        # in the middle of a timing.
        gc.collect()
        gc.freeze()

    def seconds(self):
        table = self.table
        node = self.nodes[0]
        heap = []
        ticker = _ticker()
        next(ticker)
        start = time.perf_counter()
        for step in range(STEPS):
            node = node.next
            heapq.heappush(heap, (node.key & 1023, step, node))
            if len(heap) > 256:
                other = heapq.heappop(heap)[2]
                ticker.send(table[other.key ^ 1].payload[0])
        return time.perf_counter() - start


class ReferenceProcess:
    """The kernel in a helper process; a context manager that reaps it."""

    def __init__(self, env, cwd):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.reference"], env=env, cwd=cwd,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.process.stdin.close()
        self.process.stdout.close()
        self.process.wait(timeout=30)

    def seconds(self):
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        return float(self.process.stdout.readline())


def main():
    reference = Reference()
    for _line in sys.stdin:
        sys.stdout.write("%r\n" % reference.seconds())
        sys.stdout.flush()


if __name__ == "__main__":
    main()
