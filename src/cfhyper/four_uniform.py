"""Structural coloring machinery for 4-uniform hypergraphs.

Connected uniform hypergraphs always contain an edge from which all but
one vertex can be removed without disconnecting the rest: take an edge
farthest from edge 1 in the edge-intersection graph and keep a vertex it
shares with an edge one step closer. No shortest path from edge 1 passes
through a farthest edge, just as deleting a vertex farthest from a root
never disconnects a graph. Ordering the remaining vertices by reverse
breadth-first search then lets a single pass color connected 4-uniform
hypergraphs of max degree 3 with 3 colors; peeling reduces higher degrees
to that case. At max degree at most 2 the exact oracle chi_cf_exact
colors optimally; it decides 2-regular parts by the factor duality.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .exact_cf import chi_cf_exact
from .greedy import peel_then_solve
from .model import Hypergraph, HypergraphError, _incidence_rows, _induced
from .verify import Coloring


class AnomalyError(RuntimeError):
    """An internal guarantee failed; signals a bug or violated precondition."""


@dataclass(frozen=True)
class EdgePath:
    """A sequence of pairwise-consecutive intersecting edges.

    tail_size is the overlap of the last two edges (None for single-edge
    paths). Paths returned by edge_distance are geodesics: no shorter
    sequence connects their endpoints.
    """

    edges: tuple[int, ...]
    tail_size: int | None

    @property
    def length(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Separator:
    """All but one vertex of a host edge, removable without disconnecting."""

    host_edge: int
    removed: frozenset[int]
    kept: int


@dataclass(frozen=True)
class EliminationOrdering:
    """Vertex order: separator first, then reverse-BFS, the kept vertex last."""

    order: tuple[int, ...]


def _edge_distances(edges: Sequence[Sequence[int]], rows: list[list[int]], source: int,
                    avoid: Iterable[int] = ()) -> list[int]:
    """Edge-intersection hop distance from 0-based edge source to each edge (-1: unreached),
    through no vertex of avoid. Each vertex's row is read once, from the first, and so
    nearest, edge that reaches the vertex."""
    dist = [-1] * len(edges)
    dist[source] = 0
    fresh = [True] * len(rows)
    for w in avoid:
        fresh[w] = False
    queue = [source]
    for e in queue:  # the visit order doubles as the queue
        for v in edges[e]:
            if fresh[v]:
                fresh[v] = False
                for g in rows[v]:
                    if dist[g] < 0:
                        dist[g] = dist[e] + 1
                        queue.append(g)
    return dist


def edge_distance(h: Hypergraph, e: int, f: int) -> EdgePath | None:
    """Shortest edge path from e to f, or None when they are unreachable.

    The path length counts edges, so e == f gives length 1 and
    intersecting distinct edges give length 2. Ties break toward the
    lexicographically smallest index sequence.
    """
    h.edge(e)
    h.edge(f)
    if e == f:
        return EdgePath((e,), None)
    edges, rows = h.edges, _incidence_rows(h)
    dist_to_f = _edge_distances(edges, rows, f - 1)
    if dist_to_f[e - 1] < 0:
        return None
    path, cur = [e], e - 1
    while cur != f - 1:
        closer = dist_to_f[cur] - 1
        cur = min(g for v in edges[cur] for g in rows[v] if dist_to_f[g] == closer)
        path.append(cur + 1)
    tail = len(set(edges[path[-2] - 1]) & set(edges[path[-1] - 1]))
    return EdgePath(tuple(path), tail)


def safe_separator(h: Hypergraph) -> Separator:
    """An edge and all-but-one of its vertices whose removal keeps the
    hypergraph connected.

    Requires a connected uniform hypergraph. One breadth-first search from
    edge 1 over the edge-intersection graph finds the edges farthest from
    it; no shortest path from edge 1 passes through one, so, as with a
    vertex farthest from a root in a graph, such an edge can go without
    cutting the others off, and no all-pairs distances are needed. A far
    edge hosts the separator and keeps a vertex it shares with an edge one
    step closer. Candidates are tried by ascending (tail size, host edge,
    closer edge, kept vertex), the tail size being the overlap of the host
    and the closer edge, and the first whose removal keeps the rest
    connected wins. The first candidate almost always works, but not
    universally (removing the host's other vertices can also cut edges
    that reach edge 1 only through them), hence the verified walk down
    the list, which goes on, as a last resort, to every (edge, kept
    vertex) choice not tried yet. A candidate keeps the rest connected when
    the same search from the host, never through a removed vertex, reaches
    every edge: as h is uniform, each edge keeps a vertex, and each vertex
    lies in an edge. Both searches read h's incidence rows, not a graph.
    With a single edge, everything but its largest vertex is removed.
    """
    if h.m < 1:
        raise HypergraphError("separator needs at least one edge")
    if h.uniform_r is None:
        raise HypergraphError("separator requires a uniform hypergraph")
    if not h.connected:
        raise HypergraphError("separator requires a connected hypergraph")

    if h.m == 1:
        edge = h.edge(1)
        return Separator(1, frozenset(edge[:-1]), edge[-1])

    edges, rows = h.edges, _incidence_rows(h)
    dist = _edge_distances(edges, rows, 0)
    far = max(dist)
    candidates: list[tuple[int, int, int, int]] = []
    for f, edge in enumerate(edges):
        if dist[f] != far:
            continue
        closer = [(g, v) for v in edge for g in rows[v] if dist[g] == far - 1]
        tails = Counter(g for g, _ in closer)
        candidates.extend((tails[g], f, g, v) for g, v in closer)
    candidates.sort()

    tried: set[tuple[int, int]] = set()
    every_pair = ((f, v) for f, edge in enumerate(edges) for v in edge)
    for f, v in chain(((f, v) for _, f, _, v in candidates), every_pair):
        if (f, v) in tried:
            continue
        tried.add((f, v))
        removed = frozenset(w for w in edges[f] if w != v)
        if -1 not in _edge_distances(edges, rows, f, removed):
            return Separator(f + 1, removed, v)

    raise AnomalyError(
        "no connectivity-preserving separator exists inside any edge")


def elimination_ordering(h: Hypergraph, sep: Separator) -> EliminationOrdering:
    """Order vertices so the separator opens, the kept vertex closes, and
    every vertex in between shares a post-removal edge with a later one.

    The middle section is the reverse breadth-first order of the shrunk
    hypergraph rooted at the kept vertex, so each vertex's BFS parent comes
    later, and each vertex's unseen neighbours are visited in ascending order.
    The separator must be h's own: a host edge in 1..m less its kept vertex.
    """
    e, kept, removed = sep.host_edge, sep.kept, sep.removed
    if not 1 <= e <= h.m:
        raise HypergraphError(f"separator host edge {e} is outside 1..{h.m}")
    host = h.edge(e)
    if kept not in host:
        raise HypergraphError(f"separator keeps vertex {kept}, not in host edge {e}")
    if removed != set(host) - {kept}:
        raise HypergraphError(f"separator removes {sorted(removed)}, not host edge {e} less {kept}")
    edges, rows = h.edges, _incidence_rows(h)
    seen = [False] * (h.n + 1)
    for w in host:
        seen[w] = True
    unread = [True] * len(edges)  # once read, all of an edge's vertices are seen
    visit = [kept]
    for x in visit:
        fresh = []
        for g in rows[x]:
            if unread[g]:
                unread[g] = False
                for y in edges[g]:
                    if not seen[y]:
                        seen[y] = True
                        fresh.append(y)
        fresh.sort()
        visit += fresh
    if len(visit) != h.n - len(removed):
        raise HypergraphError("ordering requires the shrunk hypergraph connected")
    return EliminationOrdering((*sorted(removed), *reversed(visit)))


def three_color_4uniform(h: Hypergraph) -> Coloring:
    """Conflict-free 3-coloring of a connected 4-uniform hypergraph of max
    degree at most 3.

    Colors the separator 1,2,3 and walks the elimination ordering: each
    vertex closing an edge avoids that edge's designated color (its
    remainder's color when monochromatic, otherwise its smallest unique
    color), so every edge keeps a uniquely colored vertex.
    """
    if h.m == 0:
        return Coloring(tuple([1] * h.n))
    if h.uniform_r != 4:
        raise HypergraphError("three-coloring requires a 4-uniform hypergraph")
    if h.max_degree > 3:
        raise HypergraphError(
            f"three-coloring requires max degree <= 3, got {h.max_degree}")
    sep = safe_separator(h)
    order = elimination_ordering(h, sep).order
    n, edges = h.n, h.edges
    pos = [0] * (n + 1)
    for i, v in enumerate(order, start=1):
        pos[v] = i

    closing: list[list[int]] = [[] for _ in range(n + 1)]
    for idx, edge in enumerate(edges, start=1):
        closing[max(map(pos.__getitem__, edge))].append(idx)

    if sep.host_edge not in closing[n]:
        raise AnomalyError("host edge does not close at the kept vertex")
    closing[n].remove(sep.host_edge)  # its other vertices hold 1, 2 and 3

    colors = [0] * (n + 1)
    for i, v in enumerate(order[:3], start=1):
        colors[v] = i
    for j in range(4, n + 1):
        v = order[j - 1]
        if len(closing[j]) > 2:
            raise AnomalyError(
                f"vertex {v} closes {len(closing[j])} edges; the ordering "
                "guarantees at most two")
        banned = set()
        for e in closing[j]:
            rest = [colors[w] for w in edges[e - 1] if w != v]
            if len(rest) != 3 or 0 in rest:
                raise AnomalyError(f"edge {e} closed before its other vertices")
            if rest[0] == rest[1] == rest[2]:
                banned.add(rest[0])
            else:
                unique = [c for c in rest if rest.count(c) == 1]
                if not unique:
                    raise AnomalyError(
                        f"edge {e}: three non-equal colors without a unique one")
                banned.add(min(unique))
        colors[v] = min({1, 2, 3} - banned)
    return Coloring(tuple(colors[1:]))


def _map_components(h: Hypergraph, solver) -> Coloring:
    """Apply a per-component solver and merge the colorings (shared palette)."""
    colors = [1] * (h.n + 1)
    for comp, sub in zip(h.components, _induced(h, h.components) if len(h.components) > 1 else [h]):
        for v, c in zip(comp, solver(sub).colors):
            colors[v] = c
    return Coloring(tuple(colors[1:]))


def color_4uniform(h: Hypergraph) -> Coloring:
    """Conflict-free coloring of any 4-uniform hypergraph with at most
    max(max_degree, 3) colors.

    Degrees above 3 are peeled away layer by layer; the remainder is
    3-colored per component. At max degree <= 2 the exact oracle supplies
    an optimal coloring instead.
    """
    if h.m > 0 and h.uniform_r != 4:
        raise HypergraphError("expected a 4-uniform hypergraph")
    if h.max_degree >= 3:
        return peel_then_solve(
            h, 3, lambda rest: _map_components(rest, three_color_4uniform))
    return chi_cf_exact(h).witness


@dataclass(frozen=True)
class Characterization:
    """Exact conflict-free chromatic number with an optimal witness."""

    chi_cf: int
    coloring: Coloring


def characterize_4uniform(h: Hypergraph) -> Characterization:
    """Exact conflict-free chromatic number of a connected 4-uniform
    hypergraph of max degree at most 2, with witness, from chi_cf_exact.

    A 2-regular one 2-colors exactly when its dual 4-regular graph has a
    {1,3}-factor and takes 3 colors otherwise; any other one 2-colors, so
    a larger value there contradicts the degree structure and raises.
    """
    if h.m == 0:
        return Characterization(1 if h.n else 0, Coloring(tuple([1] * h.n)))
    if h.uniform_r != 4:
        raise HypergraphError("characterization requires a 4-uniform hypergraph")
    if not h.connected:
        raise HypergraphError("characterization requires a connected hypergraph")
    if h.max_degree > 2:
        raise HypergraphError(
            f"characterization requires max degree <= 2, got {h.max_degree}")
    res = chi_cf_exact(h)
    if res.chi_cf > 2 and h.regular_a != 2:
        raise AnomalyError(
            "a non-regular connected 4-uniform hypergraph of max degree 2 "
            "failed to 2-color; this contradicts a proven guarantee")
    return Characterization(res.chi_cf, res.witness)
