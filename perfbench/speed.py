"""The host's current speed, from a fixed reference probe run between commands.

The shared hosts this benchmark runs on change speed by up to 1.7x for
tens of seconds at a time, for every process and every CPU alike, and
process time moves with wall time, so neither lets a run tell a slower
program from a slower host. A probe of fixed work is therefore timed
every PROBE_EVERY_S seconds between commands. It has two halves, one for
each kind of work cfhyper spends its time on: text parsed into integer
sets and sorted (graph_io, model), and a backtracking search (the
kernels). The host does not slow the two by the same amount: on the
exact workload the search half alone tracked command times best, on lll8
the parsing half, so the two count equally.

Each command's time is multiplied by REFERENCE_S over the geometric mean
of the two halves' median times around it; the result reads as the
command's time on a host where that mean is REFERENCE_S. A program that
does less work gets faster against a probe that does not change, so
gains and losses show, while the host's speed largely cancels.
"""

from __future__ import annotations

import math
import random
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

PROBE_EVERY_S = 0.1
# the geometric mean of the two halves' times at the reference speed, close
# to its median on the 2-vCPU host (Python 3.11) the benchmark was tuned on
REFERENCE_S = 0.001
# probes this far before a command's start or after its end judge its speed
WINDOW_S = 1.0

_rng = random.Random(0)
_TEXT = "".join(" ".join(str(_rng.randint(1, 400)) for _ in range(4)) + "\n"
                for _ in range(200))


def parse_half() -> int:
    """Parse 200 lines of integers into sets, then sort by set size."""
    incident: dict[int, set[int]] = {}
    total = 0
    for line in _TEXT.splitlines():
        edge = [int(x) for x in line.split()]
        for v in edge:
            incident.setdefault(v, set()).update(edge)
        total += sum(edge) & 7
    for v in sorted(incident, key=lambda u: len(incident[u])):
        total ^= len(incident[v]) * v
    return total


def search_half() -> int:
    """Count the ways to place 7 queens, by backtracking over sets."""
    return _queens(7, 0, set(), set(), set())


def _queens(n: int, row: int, cols: set[int], up: set[int],
            down: set[int]) -> int:
    if row == n:
        return 1
    found = 0
    for col in range(n):
        if col in cols or row + col in up or row - col in down:
            continue
        cols.add(col)
        up.add(row + col)
        down.add(row - col)
        found += _queens(n, row + 1, cols, up, down)
        cols.discard(col)
        up.discard(row + col)
        down.discard(row - col)
    return found


class Speed:
    """Probe times taken between commands and the scale they give a span."""

    def __init__(self) -> None:
        self.at: list[float] = []  # probe midpoints, increasing
        self.parse: list[float] = []
        self.search: list[float] = []
        self.due = 0.0
        self.results = (parse_half(), search_half())

    def tick(self) -> None:
        """Run the probe if one is due."""
        start = perf_counter()
        if start < self.due:
            return
        parsed = parse_half()
        middle = perf_counter()
        searched = search_half()
        end = perf_counter()
        if (parsed, searched) != self.results:
            raise RuntimeError("the speed probe computed a different result")
        self.at.append(middle)
        self.parse.append(middle - start)
        self.search.append(end - middle)
        self.due = end + PROBE_EVERY_S

    def took(self) -> list[float]:
        """Each probe's geometric mean of its two halves' times."""
        return [math.sqrt(p * s) for p, s in zip(self.parse, self.search)]

    def factor(self, start: float, end: float) -> float:
        """What a span's length is multiplied by to read at the reference
        speed.

        Uses the probes within WINDOW_S of the span, and at least the last
        one before it and the first one after it.
        """
        lo = min(bisect_left(self.at, start - WINDOW_S),
                 max(bisect_left(self.at, start) - 1, 0))
        hi = max(bisect_right(self.at, end + WINDOW_S),
                 min(bisect_right(self.at, end) + 1, len(self.at)))
        return REFERENCE_S / math.sqrt(statistics.median(self.parse[lo:hi])
                                       * statistics.median(self.search[lo:hi]))
