"""Core hypergraph data model: construction, statistics, duality, vertex removal.

Vertices are dense 1-based integers. Edges are stored as strictly sorted
tuples; the edge list is ordered and may contain duplicates (multiset
semantics), so 2-uniform hypergraphs double as multigraphs. All values are
immutable and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import sub
from typing import Container, Iterable, NoReturn, Sequence

from . import _kernels_py, kernels


class HypergraphError(ValueError):
    """Raised when data violates a structural invariant of the model."""


@dataclass(frozen=True)
class Hypergraph:
    """A hypergraph on vertices 1..n with an ordered multiset of edges.

    Invariants: n is at most kernels.MAX_N, every vertex id lies in 1..n,
    no vertex repeats inside an edge, and every edge is nonempty. Edge
    indices are 1-based positions in the edge list.

    ``m``, the statistics ``max_degree``, ``uniform_r``, ``regular_a``,
    ``connected`` and ``max_edge_degree`` (see HypergraphStats; the last,
    a kernels.edge_degree pass, costs the most), the ``components`` behind
    ``connected``, the ``flat`` edge layout and the ``incidence`` are lazy:
    computed on first read, cached outside the fields that equality and
    hashing compare, and never stale, as a Hypergraph is immutable. So are
    the ``edges`` of a _trusted Hypergraph.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.n
        if not 0 <= n <= kernels.MAX_N:
            raise HypergraphError(f"vertex count must be in 0..{kernels.MAX_N}, got {n}")
        for idx, edge in enumerate(self.edges, start=1):
            # one comparison per vertex: strictly increasing from 0 puts
            # every vertex at >= 1, so only the last one needs the bound n
            prev = 0
            for v in edge:
                if v <= prev:
                    break
                prev = v
            else:
                if edge and prev <= n:
                    continue
            _reject_edge(idx, edge, n)

    @classmethod
    def _trusted(cls, n: int, m: int, flat: Sequence[Sequence[int]]) -> "Hypergraph":
        """A hypergraph of m edges, checked already, given by its ``flat``."""
        h = object.__new__(cls)
        h.__dict__.update(n=n, m=m, flat=flat)  # frozen: no __setattr__
        return h

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Hypergraph":
        """Build a hypergraph, sorting each edge on ingest."""
        return cls(n, tuple(tuple(sorted(e)) for e in edges))

    @cached_property
    def m(self) -> int:
        return len(self.edges)

    def edge(self, index: int) -> tuple[int, ...]:
        """Return the edge with 1-based ``index``."""
        if not 1 <= index <= self.m:
            raise IndexError(f"edge index {index} outside 1..{self.m}")
        edges = self.__dict__.get("edges")
        return kernels.edge_at(self.flat, index - 1) if edges is None else edges[index - 1]

    def vertex_degrees(self) -> list[int]:
        """Incident-edge count per vertex (parallel edges count separately)."""
        vptr = self.incidence[0]
        return list(map(sub, vptr[2:], vptr[1:]))

    @cached_property
    def flat(self) -> Sequence[Sequence[int]]:
        """The edges as kernels.flatten lays them out for the edge passes."""
        return kernels.flatten(self.edges)

    @cached_property
    def incidence(self) -> tuple[Sequence[int], Sequence[int]]:
        """(vptr, vedges), kernels.incidence of ``flat``, read by every vertex-to-edge
        lookup: vertex v lies in the 0-based edges vedges[vptr[v]:vptr[v + 1]], ascending."""
        return kernels.incidence(self.n + 1, self.flat)

    @cached_property
    def max_degree(self) -> int:
        return max(self.vertex_degrees(), default=0)

    @cached_property
    def uniform_r(self) -> int | None:
        """The common edge size; None when sizes differ or m == 0."""
        sizes = set(map(len, self.edges) if "edges" in self.__dict__ else kernels.edge_sizes(self.flat))
        return sizes.pop() if len(sizes) == 1 else None

    @cached_property
    def regular_a(self) -> int | None:
        """The common vertex degree; None when degrees differ or n == 0."""
        degrees = set(self.vertex_degrees())
        return degrees.pop() if len(degrees) == 1 else None

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Vertex sets of the connected components, each sorted, ordered by
        smallest vertex; an isolated vertex is a component of its own. Edge
        tuples at hand go to the pure union-find, as flattening them for
        the compiled one costs more than it saves."""
        edges = self.__dict__.get("edges")
        labels = (kernels.components(self.n + 1, self.flat) if edges is None
                  else _kernels_py.components(self.n + 1, edges))
        groups: list[list[int]] = [[] for _ in range(max(labels) + 1)]
        for v, c in enumerate(labels):
            groups[c].append(v)
        return tuple(map(tuple, groups[1:]))  # group 0 holds only the unused id 0

    @cached_property
    def connected(self) -> bool:
        """True when edges chain every two vertices (always for n <= 1)."""
        return len(self.components) <= 1

    @cached_property
    def max_edge_degree(self) -> int:
        """For the worst edge, the other edges sharing a vertex with it."""
        return kernels.edge_degree(self.n + 1, self.flat, self.incidence)

    def is_graph(self) -> bool:
        """True when every edge has exactly two vertices."""
        return all(len(e) == 2 for e in self.edges)


class _ParsedEdges:
    """The edges of a _trusted Hypergraph, built from its flat on first read (a
    __getattr__ instead would slow every attribute read of every Hypergraph)."""
    def __get__(self, h: Hypergraph | None, owner: type) -> tuple[tuple[int, ...], ...]:
        return self if h is None else h.__dict__.setdefault("edges", kernels.unflatten(h.flat))


Hypergraph.edges = _ParsedEdges()  # not in the body: @dataclass would take it for a default


@dataclass(frozen=True)
class VertexRole:
    """Structural label attached to a vertex of a generated construction."""

    kind: str  # one of 'U', 'V', 'M', 'u', 'w', 'plain'
    copy: int = 0


PLAIN = VertexRole("plain")


@dataclass(frozen=True)
class VertexRoleMap:
    """Per-vertex roles for generated instances; empty for loaded ones."""

    roles: tuple[VertexRole, ...] = ()

    def role(self, v: int) -> VertexRole:
        return self.roles[v - 1] if 1 <= v <= len(self.roles) else PLAIN

    def vertices(self, kind: str, copy: int | None = None) -> list[int]:
        """All vertices carrying ``kind`` (and ``copy``, when given)."""
        return [
            v
            for v, r in enumerate(self.roles, start=1)
            if r.kind == kind and (copy is None or r.copy == copy)
        ]


@dataclass(frozen=True)
class HypergraphStats:
    """Derived statistics of a hypergraph.

    ``max_edge_degree`` counts, for the worst edge, the other edges sharing
    at least one vertex with it. ``uniform_r`` / ``regular_a`` are None when
    edge sizes / vertex degrees are not all equal (or there is nothing to
    measure).
    """

    n: int
    m: int
    max_degree: int
    max_edge_degree: int
    uniform_r: int | None
    regular_a: int | None
    connected: bool


def _reject_edge(idx: int, edge: tuple[int, ...], n: int) -> NoReturn:
    """Raise the HypergraphError for the first fault of an invalid edge."""
    if not edge:
        raise HypergraphError(f"edge {idx} is empty")
    prev = 0
    for v in edge:
        if not 1 <= v <= n:
            raise HypergraphError(f"edge {idx} contains vertex {v}, outside 1..{n}")
        if v == prev:
            raise HypergraphError(f"edge {idx} repeats vertex {v}")
        if v < prev:
            raise HypergraphError(f"edge {idx} is not sorted")
        prev = v
    raise AssertionError(f"edge {idx} is valid")


def _bfs(adj: list[list[int]], source: int,
         avoid: Container[int] = frozenset()) -> tuple[list[int], list[int]]:
    """Breadth-first search over an adjacency list (an unused entry 0,
    as for 1-based vertices, stays unreached).

    No vertex of ``avoid`` is ever entered, so the search runs on the graph
    with those vertices deleted. Returns the visit order from ``source`` and
    the hop distance of every index (-1 when unreached).
    """
    dist = [-1] * len(adj)
    dist[source] = 0
    order = [source]
    for x in order:  # the visit order doubles as the queue
        for y in adj[x]:
            if dist[y] < 0 and y not in avoid:
                dist[y] = dist[x] + 1
                order.append(y)
    return order, dist


def _biconnected_blocks(n: int, pairs: Sequence[Sequence[int]]
                        ) -> tuple[list[list[int]], list[int], set[int]]:
    """Blocks of the multigraph on vertices 1..n whose edges join the
    endpoint pairs (Hopcroft-Tarjan) as sorted lists of 0-based edge
    indices, bottom-up, with the vertex each hangs from, plus the cut
    vertices.

    Each component is searched from an endpoint of its lowest edge, in
    order of that edge, and the block holding it is the component's root:
    it hangs from 0 and is listed last, after every block below it. Every
    other block is listed after the blocks hanging from its vertices and
    hangs from the cut vertex it shares with the block above it. Parallel
    edges between the same endpoints land in a common block. Every edge
    belongs to exactly one block; isolated vertices to none. The factor
    search runs it on its multigraph, the conflict-free split on the
    vertex-edge incidence graph of a hypergraph.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for i, (u, v) in enumerate(pairs):
        adj[u].append((i, v))
        adj[v].append((i, u))
    disc = [0] * (n + 1)
    low = [0] * (n + 1)
    timer = 1
    edge_stack: list[int] = []
    blocks: list[list[int]] = []
    hangs: list[int] = []

    for root, _ in pairs:
        if disc[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        # the root's first edge is the component's lowest, so its block is
        # the first one popped at the root
        first: list[int] = []
        frames = [(root, -1, iter(adj[root]))]
        while frames:
            v, entry_edge, neighbors = frames[-1]
            descended = False
            for eid, w in neighbors:
                if eid == entry_edge:
                    continue
                if not disc[w]:
                    edge_stack.append(eid)
                    disc[w] = low[w] = timer
                    timer += 1
                    frames.append((w, eid, iter(adj[w])))
                    descended = True
                    break
                if disc[w] < disc[v]:
                    edge_stack.append(eid)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if descended:
                continue
            frames.pop()
            if not frames:
                continue
            u = frames[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                block = []
                while True:
                    eid = edge_stack.pop()
                    block.append(eid)
                    if eid == entry_edge:
                        break
                block.sort()
                if u == root and not first:
                    first = block
                else:
                    blocks.append(block)
                    hangs.append(u)
        blocks.append(first)
        hangs.append(0)

    return blocks, hangs, set(hangs) - {0}


def _induced(h: Hypergraph, groups: Sequence[Sequence[int]]) -> list[Hypergraph]:
    """For each ascending vertex group, disjoint from the others, the
    sub-hypergraph it induces: its vertices renumbered 1.. in group order
    and the edges of h inside it, in h's order."""
    group_of = [-1] * (h.n + 1)
    local = [0] * (h.n + 1)
    for gi, group in enumerate(groups):
        for i, v in enumerate(group, start=1):
            group_of[v], local[v] = gi, i
    own: list[list[tuple[int, ...]]] = [[] for _ in groups]
    for edge in h.edges:
        gi = group_of[edge[0]]
        if gi >= 0 and all(group_of[v] == gi for v in edge):
            own[gi].append(tuple(local[v] for v in edge))
    return [Hypergraph(len(group), tuple(es)) for group, es in zip(groups, own)]


def _incidence_rows(h: Hypergraph) -> list[list[int]]:
    """h.incidence as one list per vertex 0..n of its 0-based edges, for
    loops that read rows again and again (slicing the CSR each time is slower)."""
    vptr, vedges = h.incidence
    vedges = list(vedges)
    return [vedges[a:b] for a, b in zip(vptr, vptr[1:])]


def stats(h: Hypergraph) -> HypergraphStats:
    """Every statistic of h, as the ``stats`` command prints them. This
    includes ``max_edge_degree``; code needing fewer statistics reads the
    properties of h instead."""
    return HypergraphStats(h.n, h.m, h.max_degree, h.max_edge_degree,
                           h.uniform_r, h.regular_a, h.connected)


def dual(h: Hypergraph) -> Hypergraph:
    """Swap vertices and edges through incidence.

    Dual vertex i corresponds to edge i of the input; for every input vertex
    v there is one dual edge listing the indices of edges containing v. An
    a-regular r-uniform input yields an r-regular a-uniform output, and
    ``dual(dual(h)) == h`` whenever no vertex is isolated.
    """
    vptr, vedges = h.incidence
    ids = [e + 1 for e in vedges]
    edges = tuple(tuple(ids[a:b]) for a, b in zip(vptr[1:], vptr[2:]))
    if () in edges:
        raise HypergraphError(f"vertex {edges.index(()) + 1} has degree 0; "
                              "dual would contain an empty edge")
    return Hypergraph(h.m, edges)


def remove_vertices(
    h: Hypergraph, removed: Iterable[int]
) -> tuple[Hypergraph, dict[int, int]]:
    """Delete a vertex set, shrink every edge, and drop emptied edges.

    Returns the shrunk hypergraph together with the old-id -> new-id map for
    the surviving vertices (which are relabeled densely, order preserved).
    """
    removed_set = set(removed)
    for v in removed_set:
        if not 1 <= v <= h.n:
            raise HypergraphError(f"cannot remove vertex {v}, outside 1..{h.n}")
    relabel: dict[int, int] = {}
    for v in range(1, h.n + 1):
        if v not in removed_set:
            relabel[v] = len(relabel) + 1
    new_edges = []
    for edge in h.edges:
        shrunk = tuple(relabel[v] for v in edge if v not in removed_set)
        if shrunk:
            new_edges.append(shrunk)
    return Hypergraph(len(relabel), tuple(new_edges)), relabel
