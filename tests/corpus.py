"""Deterministic random instances shared across the test suite.

Everything is seeded, so test expectations stay stable between runs.
"""

from __future__ import annotations

import random
from functools import lru_cache

from cfhyper import Hypergraph
from cfhyper.model import _induced


def random_uniform_hypergraph(
    rng: random.Random, n: int, r: int, max_degree: int, m_target: int
) -> Hypergraph:
    """r-uniform with max degree capped; may be disconnected, duplicates OK."""
    deg = [0] * (n + 1)
    edges = []
    for _ in range(m_target):
        available = [v for v in range(1, n + 1) if deg[v] < max_degree]
        if len(available) < r:
            break
        edge = rng.sample(available, r)
        for v in edge:
            deg[v] += 1
        edges.append(tuple(sorted(edge)))
    return Hypergraph.from_edges(n, edges)


def capped_8uniform(rng: random.Random, n: int = 2000, m: int = 24000,
                    cap: int = 100) -> Hypergraph:
    """Up to m random 8-subsets of 1..n, no vertex in more than cap of them:
    the instances of perfbench's lll8 workload, before relabelling."""
    deg = [0] * (n + 1)
    edges = []
    available = list(range(1, n + 1))
    while len(edges) < m and len(available) >= 8:
        pick = rng.sample(available, 8)
        if any(deg[v] >= cap for v in pick):
            available = [v for v in available if deg[v] < cap]
            continue
        for v in pick:
            deg[v] += 1
        edges.append(tuple(sorted(pick)))
    return Hypergraph.from_edges(n, edges)


def largest_component(h: Hypergraph) -> Hypergraph:
    """The sub-hypergraph induced by the component with the most vertices."""
    return _induced(h, [max(h.components, key=len, default=())])[0]


@lru_cache(maxsize=None)
def mixed_corpus(count: int = 1000, seed: int = 20240901) -> tuple[Hypergraph, ...]:
    """Random r-uniform hypergraphs with r in 2..6, degree cap in 1..6, n <= 60."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = rng.randint(2, 6)
        n = rng.randint(r, 60)
        cap = rng.randint(1, 6)
        m_target = rng.randint(1, max(1, (n * cap) // r))
        h = random_uniform_hypergraph(rng, n, r, cap, m_target)
        if h.m == 0:
            continue
        out.append(h)
    return tuple(out)


@lru_cache(maxsize=None)
def connected_4uniform_corpus(
    count: int = 500, seed: int = 20240902, n_max: int = 200
) -> tuple[Hypergraph, ...]:
    """Connected 4-uniform instances of max degree exactly 3, n <= n_max."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(8, n_max)
        m_target = rng.randint(n // 3, (3 * n) // 4)
        h = largest_component(random_uniform_hypergraph(rng, n, 4, 3, m_target))
        if h.m < 2:
            continue
        if h.max_degree != 3 or not h.connected or h.n > n_max:
            continue
        out.append(h)
    return tuple(out)


@lru_cache(maxsize=None)
def small_corpus(seed: int = 20240903) -> tuple[Hypergraph, ...]:
    """Instances with n <= 16 for brute-force cross-validation."""
    rng = random.Random(seed)
    out = []
    while len(out) < 150:
        r = rng.randint(2, 6)
        n = rng.randint(r, 16)
        cap = rng.randint(1, 4)
        m_target = rng.randint(1, max(1, (n * cap) // r))
        h = random_uniform_hypergraph(rng, n, r, cap, m_target)
        if h.m == 0:
            continue
        out.append(h)
    return tuple(out)


def octahedron() -> Hypergraph:
    """The complete tripartite graph on parts {1,2}, {3,4}, {5,6}."""
    return Hypergraph.from_edges(6, [
        (i, j)
        for i in range(1, 7)
        for j in range(i + 1, 7)
        if {i, j} not in ({1, 2}, {3, 4}, {5, 6})
    ])


def fano_plane() -> Hypergraph:
    """The 7-point projective plane: 3-uniform, 7 edges, 3-regular."""
    return Hypergraph.from_edges(7, [
        (1, 2, 3), (1, 4, 5), (1, 6, 7),
        (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6),
    ])


def petersen() -> Hypergraph:
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (7, 10), (7, 9), (6, 9)]
    return Hypergraph.from_edges(10, outer + spokes + inner)


def ring_of_k4(length: int) -> Hypergraph:
    """A ring of cut vertices, each carrying a pendant K4.

    Every ring edge plus a 4-cycle in each K4 is a {2,4}-factor.
    """
    edges = []
    for i in range(length):
        c = 4 * i + 1
        edges.append((c, 4 * ((i + 1) % length) + 1))
        q = [c, c + 1, c + 2, c + 3]
        edges.extend((q[x], q[y]) for x in range(4) for y in range(x + 1, 4))
    return Hypergraph.from_edges(4 * length, edges)


def chain_of_k5(count: int) -> Hypergraph:
    """count copies of K5 in a row, each sharing one cut vertex with the next.

    It has a {1,4}-factor, and the factor search asks the kernel in every
    block: a budget below count cannot be met.
    """
    edges = []
    for i in range(count):
        q = range(4 * i + 1, 4 * i + 6)
        edges.extend((u, v) for u in q for v in q if u < v)
    return Hypergraph.from_edges(4 * count + 1, edges)
