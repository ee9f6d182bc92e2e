"""Host-speed calibration of the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third and more within minutes, which no run length averages out.  So every
timing is paired with calibration samples taken right next to it: one
sample is one run of `unit`, a fixed pure-Python backtracking search and
integer loop that share no code with the package.  A timing is reported
adjusted,

    adjusted = raw * REFERENCE_S / c

where c is the median of the calibration samples nearest to it in time.
It reads as the time the same work would take on a host where one
calibration unit takes REFERENCE_S.  A change to the package moves the raw
time and leaves c alone, so it moves the adjusted time by the same share;
a host that slows down moves both and leaves the adjusted time alone.
"""

from __future__ import annotations

import random
import statistics
from bisect import bisect_left
from time import perf_counter

REFERENCE_S = 0.003  # about the unit's time on two cores of a 2020s x86 host
NEAREST = 3  # calibration samples that adjust one timing

# The unit's two halves take about the same time.  The search tracks the
# exact workloads best, the loop the randomized one; their sum tracks both
# (see "Host-speed adjustment" in cfbench/README.md).
# The search enumerates partial 2-colorings of a fixed hypergraph on 14
# vertices; it resembles the package's kernels (counters per edge, undo on
# backtrack) without being any of them.
_rng = random.Random(5)
_N = 14
_EDGES = [sorted(_rng.sample(range(_N), _rng.randint(2, 4))) for _ in range(18)]
_INCIDENT = [[i for i, e in enumerate(_EDGES) if v in e] for v in range(_N)]
_NODES = 250
_LOOP = 15_000


def unit():
    """One calibration sample's work: a CF search stopped after _NODES
    nodes, then an integer loop of _LOOP steps."""
    cnt = [[0, 0] for _ in _EDGES]
    undecided = [len(e) for e in _EDGES]
    nodes = 0
    found = 0

    def alive(ei):
        c = cnt[ei]
        return c[0] == 1 or c[1] == 1 or (undecided[ei] > 0 and not (c[0] >= 2 and c[1] >= 2))

    def branch(v):
        nonlocal nodes, found
        nodes += 1
        if nodes > _NODES:
            return
        if v == _N:
            found += 1
            return
        for c in (0, 1, None):
            for ei in _INCIDENT[v]:
                undecided[ei] -= 1
                if c is not None:
                    cnt[ei][c] += 1
            if all(alive(ei) for ei in _INCIDENT[v]):
                branch(v + 1)
            for ei in _INCIDENT[v]:
                undecided[ei] += 1
                if c is not None:
                    cnt[ei][c] -= 1

    branch(0)
    total = 0
    for i in range(_LOOP):
        total += i * i % 7
    return found + total


class Calibrator:
    """Calibration samples, each stamped with the midpoint of its run."""

    def __init__(self, every_s):
        self.every_s = every_s
        self.stamps = []
        self.seconds = []
        self._last = float("-inf")
        unit()  # the first run of the unit warms it up and is not kept

    def sample(self):
        start = perf_counter()
        unit()
        end = perf_counter()
        self.stamps.append((start + end) / 2)
        self.seconds.append(end - start)
        self._last = end

    def maybe_sample(self):
        """Take a sample unless one was taken within the last every_s."""
        if perf_counter() - self._last >= self.every_s:
            self.sample()

    def factor(self, stamp):
        """REFERENCE_S over the median of the samples nearest to `stamp`."""
        i = bisect_left(self.stamps, stamp)
        near = range(max(0, i - NEAREST), min(len(self.stamps), i + NEAREST))
        near = sorted(near, key=lambda j: abs(self.stamps[j] - stamp))[:NEAREST]
        return REFERENCE_S / statistics.median(self.seconds[j] for j in near)

    def adjust(self, seconds, start):
        """The adjusted length of a timing of `seconds` that began at `start`."""
        return seconds * self.factor(start + seconds / 2)
