"""How fast the machine runs Python at the moment, and the conversion of
measured times to the speed of a reference machine.

The shared host this benchmark runs on changes speed by up to 1.6x, in
spells from under a second to minutes, from load outside the process;
a 20 s run cannot average that out.  So the worker times a fixed
kernel of pure Python work (no opfactor code, garbage collection off)
after every request, outside the timed region.  A request's latency
is divided by the speed factor in force around it: the median kernel
time of the `WINDOW` samples centred on the request, over
`REFERENCE_S`, the kernel's median time on the machine used to tune
the benchmark.  A change to opfactor cannot change the kernel's time,
so it moves the converted figures as much as the measured ones.

cli-corpus uses the same kernel, run in the worker, although its
requests are fresh processes.  A bare interpreter start
(`python3 -c pass`) was tried as its probe instead and was worse: in
one run its time doubled while the requests' did not.  Its set-up
samples, the `import opfactor` time of fresh interpreters, are each
converted with kernel runs made in that interpreter just after the
import: in two sets of ten runs this spread 0.085 and 0.055, against
0.20 and 0.26 with kernel runs in the worker.
"""

import gc
import statistics
import time

# about the median kernel time in a worker on the tuning machine (2
# shared cores at 2.1 GHz, Python 3.11.7); it only fixes the scale of
# the converted figures
REFERENCE_S = 0.4e-3
WINDOW = 9
# kernel runs after a set-up: a set-up is one sample, so nothing else
# averages its factor, and a longer window follows the machine better
# (set-up spread over ten runs: 0.19 with 9 kernel runs, 0.14 with 60)
SETUP_WINDOW = 60


class _Node:
    __slots__ = ("key", "pair")

    def __init__(self, key, pair):
        self.key = key
        self.pair = pair


def kernel():
    """Small objects, tuple hashing and a keyed sort, the kind of work
    opfactor's expression trees do; of the kernels tried, the one whose
    time followed opfactor's most closely across runs."""
    nodes = [_Node(i, (i, i + 1)) for i in range(600)]
    h = 0
    for node in nodes:
        h ^= hash((node.key, node.pair))
    return sorted(nodes, key=lambda node: -node.key)[0].key, h


def sample() -> float:
    """Seconds one kernel run takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(samples) -> float:
    """Median kernel time over REFERENCE_S: above 1 when the machine runs
    slower than the reference."""
    return statistics.median(samples) / REFERENCE_S


def factors(samples) -> list:
    """Speed factor per request, from the WINDOW samples centred on it."""
    half = WINDOW // 2
    n = len(samples)
    out = []
    for i in range(n):
        lo = max(0, min(i - half, n - WINDOW))
        out.append(factor(samples[lo:lo + WINDOW]))
    return out
