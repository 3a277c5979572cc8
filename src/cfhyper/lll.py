"""Randomized conflict-free coloring by local resampling.

Every vertex gets a uniform color from a palette of size k; while some edge
of the r-uniform input carries at most r/2 distinct colors, the
lowest-index such edge is fully recolored. Above the palette bound
returned by color_bound the expected number of resampling rounds is small
(Moser-Tardos style behavior), and any accepted coloring has more than r/2
distinct colors on every edge, hence a uniquely colored vertex in each.

A worklist (Moser and Tardos, JACM 2010) replaces a rescan of all edges
each round: a heap holding every violated edge index, plus stale ones that
are dropped on reaching the top. A resample can change only the edges
through the recolored vertices, so only those are checked again. The
rounds and colorings are those of the full rescan, and the incidence is
read only once some edge is violated. Each check is a kernels.scan_edges
pass: over all edges first, then per round over the recolored vertices'
edges, which Hypergraph.incidence lists.
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from dataclasses import dataclass
from functools import partial

from . import kernels
from .model import Hypergraph, HypergraphError
from .verify import Coloring

DEFAULT_MAX_ROUNDS = 10**6


@dataclass(frozen=True)
class LLLParams:
    """Palette size, PRNG seed, and resampling cap for the randomized solver."""

    k: int
    seed: int = 0
    max_rounds: int = DEFAULT_MAX_ROUNDS

    def __post_init__(self) -> None:
        if self.k < 1:
            raise HypergraphError(f"palette size must be >= 1, got {self.k}")
        if self.max_rounds < 1:
            raise HypergraphError(
                f"max_rounds must be >= 1, got {self.max_rounds}")


def color_bound(r: int, max_degree: int) -> int:
    """Palette size guaranteeing a conflict-free coloring of r-uniform
    hypergraphs of the given maximum degree: ceil((e*r)^(2/r) * (e*r/2) *
    max_degree^(2/r)). Monotone in max_degree.
    """
    if r < 2:
        raise HypergraphError(f"uniformity must be >= 2, got {r}")
    if max_degree < 2:
        raise HypergraphError(f"max degree must be >= 2, got {max_degree}")
    value = ((math.e * r) ** (2.0 / r)) * (math.e * r / 2.0) * (max_degree ** (2.0 / r))
    return math.ceil(value)


def randomized_cf_coloring(h: Hypergraph, params: LLLParams) -> Coloring | None:
    """Sample and resample until every edge has more than r/2 distinct colors.

    Deterministic for fixed inputs: colors come from random.Random(seed)
    (the stdlib Mersenne Twister), vertices are colored in ascending order,
    and the violated edge chosen each round is the lowest-index one. Each
    round recolors all r vertices of one violated edge; returns None when
    max_rounds rounds did not reach an accepted coloring.
    """
    if h.m == 0:
        return Coloring(tuple([1] * h.n))
    r = h.uniform_r
    if r is None:
        raise HypergraphError("randomized coloring requires a uniform hypergraph")
    threshold = r // 2  # "at most r/2 distinct" means <= floor(r/2)
    if min(params.k, r) <= threshold:
        # no edge can ever exceed the threshold, so the cap is certain to hit
        return None
    rng = random.Random(params.seed)
    k = params.k
    colors = [0] + [rng.randint(1, k) for _ in range(h.n)]
    if k < 2**31:  # a C int array spares scan_edges a conversion per call
        colors = array("i", colors)
    # violated(which): the edges among which (all by default) at or below the threshold
    violated = partial(kernels.scan_edges, h.flat, colors, kernels.FEW_COLORS, threshold)
    # 0-based edges, ascending, hence already a heap; `queued` mirrors its contents
    worklist = violated()
    queued = set(worklist)
    vptr, vedges = h.incidence if worklist else ([], [])
    rounds = 0
    while worklist:
        e = heapq.heappop(worklist)
        queued.discard(e)
        bad = h.edge(e + 1)
        if len({colors[v] for v in bad}) > threshold:  # stale: fixed since queued
            continue
        rounds += 1
        if rounds > params.max_rounds:
            return None
        for v in bad:
            colors[v] = rng.randint(1, k)
        for f in violated({f for v in bad for f in vedges[vptr[v]:vptr[v + 1]]} - queued):
            queued.add(f)
            heapq.heappush(worklist, f)
    return Coloring(tuple(colors[1:]))
