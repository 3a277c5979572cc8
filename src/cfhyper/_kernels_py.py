"""Pure-Python kernels: the portable reference implementation.

Two exhaustive searches live here because they dominate the toolkit's
runtime: degree-constrained edge selection (factor search inside one
biconnected block) and backtracking k-colorability (conflict-free or
proper). cfhyper.kernels picks this module or its compiled twin at import
time; both must explore the identical search tree so that verdicts,
witnesses, and node counts agree exactly.
The edge passes scan_edges, incidence, edge_degree and components follow
them (both searches take their vertex-to-edge lists from incidence, in
both backends); here they loop over the edge tuples as they are, in
memory O(n + the sum of edge sizes) on every input.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import accumulate, chain, count
from operator import getitem
from typing import Callable, Iterable, Sequence

BACKEND_NAME = "pure"

# solve_degree_constrained status codes
FOUND = 0
UNSAT = 1
BUDGET = 2

# color_search modes; scan_edges takes CONFLICT_FREE and FEW_COLORS
CONFLICT_FREE = 0
PROPER = 1
FEW_COLORS = 2

# the largest vertex count of a hypergraph: the compiled passes take its
# n + 1 ids 0..n and count up to n + 2, which must fit a C int
MAX_N = 2**31 - 3


def solve_degree_constrained(
    n: int,
    eu: Sequence[int],
    ev: Sequence[int],
    allowed: Sequence[Iterable[int]],
    budget: int,
) -> tuple[int, list[int] | None, int]:
    """Exhaustive search for an edge subset with constrained vertex degrees.

    Edge i joins 0-based vertices eu[i] and ev[i]. The selected degree of
    vertex v must lie in the set allowed[v]; values outside 0..deg(v) can
    never be met and are ignored. Edges are branched in ascending index
    order, trying "selected" before "excluded", with unit propagation: a
    vertex with only one allowed degree still reachable, which equals its
    selected degree so far or that plus its undecided edges, forces all
    those edges one way.

    Returns (status, selection, nodes) where selection is a 0/1 list per
    edge when status == FOUND and nodes counts branch decisions. UNSAT is
    only reported after the whole tree is refuted; BUDGET after more than
    ``budget`` branch decisions.
    """
    m = len(eu)
    vptr, vedges = incidence(n, list(zip(eu, ev)))
    deg = [vptr[v + 1] - vptr[v] for v in range(n)]

    # nxt[v][d]: the least allowed degree >= d, or deg(v) + 1 when none is
    nxt = []
    for v in range(n):
        top = deg[v] + 1
        row = [top] * (top + 1)
        for t in allowed[v]:
            if 0 <= t < top:
                row[t] = t
        for d in range(top - 1, -1, -1):
            if row[d] > row[d + 1]:
                row[d] = row[d + 1]
        nxt.append(row)

    state = [0] * m  # 0 undecided, 1 in, 2 out
    chosen = [0] * n
    undec = deg[:]
    trail: list[int] = []
    nodes = 0

    def check_vertex(v: int, pending: list[tuple[int, int]]) -> bool:
        # dead end -> False; pins the vertex's undecided edges when forced
        c = chosen[v]
        u = undec[v]
        row = nxt[v]
        t = row[c]  # the first reachable target, if any
        if t > c + u:
            return False
        if u == 0 or row[t + 1] <= c + u:  # a second target is reachable
            return True
        if t == c:
            val = 2
        elif t == c + u:
            val = 1
        else:
            return True
        for j in range(vptr[v], vptr[v + 1]):
            e = vedges[j]
            if state[e] == 0:
                pending.append((e, val))
        return True

    def assign(e: int, val: int, pending: list[tuple[int, int]]) -> bool:
        s = state[e]
        if s != 0:
            return s == val
        state[e] = val
        trail.append(e)
        a = eu[e]
        b = ev[e]
        undec[a] -= 1
        undec[b] -= 1
        if val == 1:
            chosen[a] += 1
            chosen[b] += 1
        return check_vertex(a, pending) and check_vertex(b, pending)

    def run_queue(pending: list[tuple[int, int]]) -> bool:
        qi = 0
        while qi < len(pending):
            e, val = pending[qi]
            qi += 1
            if not assign(e, val, pending):
                return False
        return True

    def undo_to(mark: int) -> None:
        while len(trail) > mark:
            e = trail.pop()
            val = state[e]
            state[e] = 0
            a = eu[e]
            b = ev[e]
            undec[a] += 1
            undec[b] += 1
            if val == 1:
                chosen[a] -= 1
                chosen[b] -= 1

    # root propagation: unconditional forcings and degree sanity
    pending: list[tuple[int, int]] = []
    for v in range(n):
        if not check_vertex(v, pending):
            return (UNSAT, None, 0)
    if not run_queue(pending):
        return (UNSAT, None, 0)

    stack: list[list[int]] = []  # frames [edge, next_phase, trail_mark]
    scan = 0
    while True:
        while scan < m and state[scan] != 0:
            scan += 1
        if scan == m:
            return (FOUND, [1 if s == 1 else 0 for s in state], nodes)
        stack.append([scan, 0, len(trail)])
        while True:
            top = stack[-1]
            edge, phase, mark = top
            if phase == 2:
                stack.pop()
                if not stack:
                    return (UNSAT, None, nodes)
                parent = stack[-1]
                undo_to(parent[2])
                parent[1] += 1
                continue
            nodes += 1
            if nodes > budget:
                return (BUDGET, None, nodes)
            if run_queue([(edge, 1 if phase == 0 else 2)]):
                scan = edge + 1
                break
            undo_to(mark)
            top[1] += 1


def color_search(
    n: int,
    edges: Sequence[Sequence[int]],
    k: int,
    mode: int,
) -> tuple[list[int] | None, int]:
    """Find a k-coloring by exhaustive backtracking with symmetry breaking.

    Edges list 0-based vertex ids. Vertices are colored in ascending order
    and vertex v only tries colors up to one more than the largest color
    used before it, so each palette is explored once up to renaming. An
    edge is checked the moment its last vertex is colored: it must contain
    a color appearing exactly once (CONFLICT_FREE mode) or two distinct
    colors (PROPER mode).

    Returns (colors, nodes) with colors a 1-based list per vertex, or
    (None, nodes) when no coloring with k colors exists; nodes counts
    attempted vertex-color assignments.
    """
    if n == 0:
        return ([], 0)
    vptr, vedges = incidence(n, edges)
    vinc = [vedges[vptr[v]:vptr[v + 1]] for v in range(n)]
    uncolored = [len(e) for e in edges]
    colors = [0] * n
    cnt = [0] * (k + 2)
    nodes = 0

    def edge_ok(i: int) -> bool:
        edge = edges[i]
        if mode == PROPER:
            c0 = colors[edge[0]]
            for v in edge:
                if colors[v] != c0:
                    return True
            return False
        ok = False
        for v in edge:
            cnt[colors[v]] += 1
        for v in edge:
            if cnt[colors[v]] == 1:
                ok = True
                break
        for v in edge:
            cnt[colors[v]] = 0
        return ok

    def place(v: int, c: int) -> bool:
        colors[v] = c
        for i in vinc[v]:
            uncolored[i] -= 1
        for i in vinc[v]:
            if uncolored[i] == 0 and not edge_ok(i):
                return False
        return True

    def unplace(v: int) -> None:
        for i in vinc[v]:
            uncolored[i] += 1
        colors[v] = 0

    maxused = [0] * (n + 1)
    attempt = [0] * n
    v = 0
    while True:
        limit = maxused[v] + 1
        if limit > k:
            limit = k
        c = attempt[v] + 1
        placed = False
        while c <= limit:
            nodes += 1
            if place(v, c):
                placed = True
                break
            unplace(v)
            c += 1
        if placed:
            attempt[v] = c
            maxused[v + 1] = maxused[v] if c <= maxused[v] else c
            v += 1
            if v == n:
                return (colors[:], nodes)
            attempt[v] = 0
        else:
            attempt[v] = 0
            if v == 0:
                return (None, nodes)
            v -= 1
            unplace(v)


def counter(colors: list[int]) -> Callable[[int], int]:
    """Occurrences of a color in ``colors``; list.count is quadratic, so only up to 16."""
    return colors.count if len(colors) <= 16 else Counter(colors).__getitem__


def flatten(edges: Sequence[Sequence[int]]) -> Sequence[Sequence[int]]:
    """The layout the edge passes read: here the edges as they are."""
    return edges


# flatten()'s inverse, each edge's size in order and the 0-based edge e; here flat is the edges
unflatten = flatten
edge_sizes = partial(map, len)
edge_at = getitem


def scan_edges(flat: Sequence[Sequence[int]], colors: Sequence[int], mode: int, t: int,
               which: Iterable[int] | None = None) -> list[int]:
    """The edges e among ``which`` (all by default, in its order) of ``flat``,
    flatten()'s layout of an edge list, that fail a coloring test, vertex v
    having color colors[v]: no color occurs once in the edge (CONFLICT_FREE)
    or at most t distinct colors do (FEW_COLORS)."""
    if which is None:
        which = range(len(flat))
    if mode == CONFLICT_FREE:
        return [e for e in which if 1 not in map(counter(cs := [colors[v] for v in flat[e]]), cs)]
    return [e for e in which if len({colors[v] for v in flat[e]}) <= t]


def incidence(n: int, flat: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """(vptr, vedges) of the edges in ``flat``, flatten()'s layout, their ids
    in 0..n-1: vertex v lies in the edges vedges[vptr[v]:vptr[v + 1]], ascending."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for e, edge in enumerate(flat):
        for v in edge:
            rows[v].append(e)
    return [0, *accumulate(map(len, rows))], list(chain.from_iterable(rows))


def edge_degree(n: int, flat: Sequence[Sequence[int]],
                incidence: tuple[Sequence[int], Sequence[int]]) -> int:
    """For the worst edge in ``flat``, flatten()'s layout of edges with ids
    in 0..n-1, the other edges sharing an id with it (0 for no edges);
    ``incidence`` is incidence(n, flat). Each edge's count is the union of
    its ids' incidence rows, so memory stays O(n + sum of edge sizes)."""
    vptr, vedges = incidence[0], list(incidence[1])
    rows = [vedges[a:b] for a, b in zip(vptr, vptr[1:])]
    return max((len(set().union(*map(rows.__getitem__, e))) for e in flat),
               default=1) - 1


def components(n: int, flat: Sequence[Sequence[int]]) -> list[int]:
    """For each id 0..n-1 of the edges in ``flat``, flatten()'s layout, the
    index of its connected component, numbered by smallest id; an id in
    no edge is a component of its own."""
    parent = list(range(n))  # union-find forest, each root its tree's smallest id

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for edge in flat:
        root = find(edge[0])
        for v in edge[1:]:
            other = find(v)
            if other < root:
                parent[root] = root = other
            else:
                parent[other] = root
    labels = count()
    for v, p in enumerate(parent):  # p <= v, and p < v is labelled already
        parent[v] = next(labels) if p == v else parent[p]
    return parent
