"""Exact chromatic oracles.

Exact conflict-free and proper chromatic numbers; the ground truth the
algorithmic modules are validated against. Proper colorability is one
complete backtracking search of the whole instance in the kernel, with
ties broken toward smaller colors, so its witnesses are deterministic.

Conflict-free colorability with k colors is decided part by part. Each
connected component is colored on its own. A connected part that is
2-regular and r-uniform never reaches the kernel: by the paper's
duality it has a conflict-free 2-coloring exactly when its r-regular
dual multigraph has a {1, r-1}-factor (cf2_via_duality), and the greedy
peeling colors it with Delta + 1 = 3 colors (Pach and Tardos). Any
other connected part is split at a separating edge e, one whose removal
leaves sides C_1..C_j; S_i is e ∩ C_i. Colors can be renamed in each
side on its own, so e is conflict-free exactly when some side has U_i,
C_i plus the edge S_i is k-colorable, and every other side has Z_j, C_j
has a k-coloring in which S_j misses a color. Z_j is k-colorability
when |S_j| < k and (k-1)-colorability when S_j is all of C_j. Any other
side would need a per-vertex color cap, which the kernel does not have,
so at that k the next split is tried, and the kernel decides when none
is left.

Sides hanging off one core are cut off together (a cycle with a pendant
edge at every vertex is one split, not one per pendant). The core K
grows from a block-cut tree node whose largest piece is smallest; the
split cuts each separating edge f met first on the way out from it
whose sides serve k and for which |f ∩ K| < k, and the rest stays in K
with what hangs off it. As |f ∩ K| < k, K misses a color on f whatever
its coloring, so f needs nothing of K while another side of f has U;
otherwise f ∩ K joins K as an edge.

All queries recurse. The split taken is the one whose largest piece is
smallest, ties by edge index, single edges before a core. When
|S_i| = 1, U_i is the query Z_i, and when |f ∩ K| = 1 the core's share
of f has a unique color anyway; such a free U is taken before the
smallest side is asked for U. Without the first rule the queries
multiply on a chain of cliques joined by bridges, without the second on
a path, and without the free U first they grow as n^1.58 on a tree of
triangles. Once a call has created _PARTS_PER_VERTEX parts per vertex,
every part asked is searched whole. The separating edges are the edge
nodes that are cut vertices of the vertex-edge incidence graph. Each
part finds its splits once per call and keeps its witness across
palettes.

A conflict-free witness is composed from the parts' witnesses: in every
side but the one holding e's unique color, a color S_j misses is swapped
with that color, and a side holding f's unique color next to a core
takes a color the core misses on f. It is the kernel's first witness in
search order only when nothing splits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import kernels
from .factors import cf2_via_duality
from .greedy import greedy_cf_coloring
from .model import Hypergraph, _bfs, _biconnected_blocks, _induced
from .verify import Coloring

# Parts this many splits deep go to the kernel whole; each level takes
# three Python frames.
_MAX_DEPTH = 32
# Asking both U_i and Z_i of a side recurses into it twice, so the parts
# can outgrow n; past this many per vertex they are searched whole. The
# instances in the tests create at most 3 per vertex.
_PARTS_PER_VERTEX = 8


@dataclass(frozen=True)
class ChiCfResult:
    """Exact chromatic value, an optimal witness and the color kernel's nodes."""

    chi_cf: int
    witness: Coloring
    nodes: int


def _search(h: Hypergraph, k: int, mode: int) -> tuple[Coloring | None, int]:
    edges0 = [tuple(v - 1 for v in e) for e in h.edges]
    raw, nodes = kernels.color_search(h.n, edges0, k, mode)
    if raw is None:
        return None, nodes
    return Coloring(tuple(raw)), nodes


@dataclass(frozen=True)
class _Side:
    """A side C_i of a cut edge: its vertices in the parent's numbering,
    S_i in its own, and the parts of the two queries on it."""

    vertices: tuple[int, ...]
    shared: tuple[int, ...]
    alone: _Part  # C_i, for Z_i
    with_edge: _Part | None  # C_i plus the edge S_i, for U_i; None when |S_i| = 1


@dataclass(eq=False)
class _Part:
    """An instance met in the split, connected or not, and its witness
    (colors of vertices 1..n) once a palette works. A part is asked at
    strictly rising palettes, k or, as a side with |S_i| >= k, k - 1; so
    no failed palette is asked again, nor one below the witness's."""

    h: Hypergraph
    depth: int
    works: tuple[int, ...] | None = None
    components: list[tuple[tuple[int, ...], _Part]] | None = None  # when not connected
    splits: list[tuple[int, tuple[int, ...], tuple[int, ...]]] | None = None  # see _splits
    built: dict[tuple[int, ...], _Split] = field(default_factory=dict)


@dataclass(eq=False)
class _Split:
    """A part with its cut edges removed. Per cut edge f: the sides it
    joins besides the core K, and f ∩ K in K's numbering. core lists K's
    vertices in the part's numbering (none for a split at one edge), and
    cores holds K's parts by the cut edges whose share is added to K as
    an edge."""

    sides: list[list[_Side]]
    core: tuple[int, ...]
    core_shared: list[tuple[int, ...]]
    cores: dict[frozenset[int], _Part]


def _splits(h: Hypergraph) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Ways to split the connected h, best first, as (cap, cut, core).

    cut is one separating edge (0-based) with no core, or some of the
    separating edges met first on the way out from a block-cut tree node
    whose largest piece is smallest, with the vertices whose path to that
    node crosses no separating edge; the split's core is every vertex
    the cut leaves joined to them. cap is the largest |S_i| of a side
    with |S_i| < |C_i| and, with a core, the largest |f ∩ K| of a cut
    edge f (0 when there is none): the split serves palettes k > cap.
    Splits are ranked by the vertices in their largest piece, then
    single edges by index, then core splits by cap.
    """
    n = h.n
    # vertex v is node v, edge i node n+1+i; an edge separates h exactly
    # when its node is a cut vertex of this graph
    pairs = [(v, n + 1 + i) for i, e in enumerate(h.edges) for v in e]
    blocks, _, cuts = _biconnected_blocks(n + h.m, pairs)
    if max(cuts, default=0) <= n:
        return []
    # the block-cut tree: block b is node b, cut vertex c node nb + c
    nb = len(blocks)
    touches: dict[tuple[int, int], int] = {}  # (block, cut) -> its incidences there
    home = [0] * (n + h.m + 1)  # the one block of each other node
    for b, block in enumerate(blocks):
        for eid in block:
            for x in pairs[eid]:
                if x in cuts:
                    touches[b, x] = touches.get((b, x), 0) + 1
                else:
                    home[x] = b
    adj: list[list[int]] = [[] for _ in range(nb + n + h.m + 1)]
    for b, c in touches:
        adj[b].append(nb + c)
        adj[nb + c].append(b)
    below = [0] * len(adj)  # vertices of h at each tree node, then in its subtree
    for v in range(1, n + 1):
        below[nb + v if v in cuts else home[v]] += 1
    # rooted at the block of edge 0, listed last. The root only orders
    # ties below, and tied nodes that are not edge nodes share one core
    order, dist = _bfs(adj, nb - 1)
    for x in reversed(order):
        for y in adj[x]:
            if dist[y] < dist[x]:
                below[y] += below[x]

    def pieces(x: int) -> list[int]:
        """Vertices of h in the piece at each tree neighbour of x, when x
        is removed."""
        return [below[y] if dist[y] > dist[x] else n - below[x] for y in adj[x]]

    def cap(shares: list[tuple[int, int]]) -> int:
        return max((s for s, size in shares if s < size), default=0)

    ranked = []
    for c in cuts:
        if c > n:
            t = nb + c
            sides = list(zip((touches[b, c] for b in adj[t]), pieces(t)))
            ranked.append((max(size for _, size in sides), 0, c - n - 1,
                           cap(sides), (c - n - 1,), ()))
    # ties go to an edge node, whose single-edge split is ranked already
    x = min(order, key=lambda x: (max(pieces(x)), x < nb + n + 1))
    if x < nb + n + 1:
        # the core's tree nodes; an edge node next to them touches just one
        region = _bfs(adj, x, range(nb + n + 1, len(adj)))[0]
        hanging = []  # per separating edge met: its cap, index, sizes beyond
        for y in region:
            for z in adj[y]:
                if z <= nb + n:
                    continue  # in the region
                c = z - nb
                out = [(touches[b, c], size)
                       for b, size in zip(adj[z], pieces(z)) if b != y]
                hanging.append((max(touches[y, c], cap(out)), c - n - 1,
                                [size for _, size in out]))
        inside = set(region)
        core = tuple(v for v in range(1, n + 1)
                     if (nb + v if v in cuts else home[v]) in inside)
        # one split per cap: the edges it serves are cut, the others stay
        # in the core with what hangs off them
        hanging.sort()
        cut: list[int] = []
        sizes: list[int] = []
        for i, (most, e, out) in enumerate(hanging):
            cut.append(e)
            sizes += out
            if i + 1 == len(hanging) or hanging[i + 1][0] > most:
                ranked.append((max(max(sizes), n - sum(sizes)), 1, most,
                               most, tuple(sorted(cut)), core))
    ranked.sort()
    return [(most, cut, core) for *_, most, cut, core in ranked]


def _unique(found: tuple[int, ...], shared: tuple[int, ...]) -> int:
    """A color that occurs once on the vertices shared."""
    on = [found[v - 1] for v in shared]
    return next(c for c in on if on.count(c) == 1)


def _free(found: tuple[int, ...], shared: tuple[int, ...], k: int) -> int:
    """A color of 1..k that no vertex shared has."""
    used = {found[v - 1] for v in shared}
    return next(c for c in range(1, k + 1) if c not in used)


def _place(colors: list[int], vertices: tuple[int, ...],
           found: tuple[int, ...], a: int, b: int) -> None:
    """Color vertices as found says, with colors a and b swapped."""
    swap = {a: b, b: a}
    for v, c in zip(vertices, found):
        colors[v] = swap.get(c, c)


class _ConflictFree:
    """Conflict-free k-colorability of one instance, for any k, by the
    split; parts and their answers are kept across palettes."""

    def __init__(self, h: Hypergraph):
        self.n = h.n
        self.nodes = 0  # kernel nodes, over every palette asked
        self.parts_left = _PARTS_PER_VERTEX * h.n
        self.whole = self._part(h, 0)

    def _part(self, h: Hypergraph, depth: int) -> _Part:
        self.parts_left -= 1
        return _Part(h, depth)

    def colorable(self, k: int) -> Coloring | None:
        found = self._colorable(self.whole, k)
        return None if found is None else Coloring(found)

    def _colorable(self, part: _Part, k: int) -> tuple[int, ...] | None:
        if part.works is None:
            part.works = self._decide(part, k)
        return part.works

    def _decide(self, part: _Part, k: int) -> tuple[int, ...] | None:
        h = part.h
        if all(len(e) == 1 for e in h.edges):
            return (1,) * h.n
        if k == 1:
            return None
        if part.components is None:
            comps = h.components
            part.components = [] if len(comps) == 1 else [
                (comp, self._part(piece, part.depth))
                for comp, piece in zip(comps, _induced(h, comps))]
        if part.components:
            colors = [0] * (h.n + 1)
            for vertices, piece in part.components:
                found = self._colorable(piece, k)
                if found is None:
                    return None
                for v, c in zip(vertices, found):
                    colors[v] = c
            return tuple(colors[1:])
        # the degree sum screens out the other parts before regular_a
        if sum(map(len, h.edges)) == 2 * h.n and h.regular_a == 2 and h.uniform_r:
            found = cf2_via_duality(h) if k == 2 else greedy_cf_coloring(h)
            return None if found is None else found.colors
        if part.depth < _MAX_DEPTH and self.parts_left > 0:
            if part.splits is None:
                part.splits = _splits(h)
            for cap, cut, core in part.splits:
                if k > cap:
                    if cut not in part.built:
                        part.built[cut] = self._split(part, cut, core)
                    return self._join(h.n, part.built[cut], k)
        found, nodes = _search(h, k, kernels.CONFLICT_FREE)
        self.nodes += nodes
        return None if found is None else found.colors

    def _split(self, part: _Part, cut: tuple[int, ...],
               anchor: tuple[int, ...]) -> _Split:
        """The pieces of part without the edges cut: the core, the
        components with a vertex of anchor, and the other components, as
        sides in order of their smallest vertex."""
        h = part.h
        removed = set(cut)
        rest = Hypergraph(h.n, tuple(
            e for i, e in enumerate(h.edges) if i not in removed))
        comps = rest.components
        pieces = _induced(rest, comps)
        # each vertex's component and its number there
        where = {v: (c, i) for c, comp in enumerate(comps)
                 for i, v in enumerate(comp, start=1)}
        core = tuple(sorted(v for c in {where[v][0] for v in anchor} for v in comps[c]))
        in_core = {v: i for i, v in enumerate(core, start=1)}
        depth = part.depth + 1
        split = _Split([], core, [], {})
        for e in cut:
            shared: dict[int, list[int]] = {}
            for v in h.edges[e]:
                if v not in in_core:
                    c, i = where[v]
                    shared.setdefault(c, []).append(i)
            split.core_shared.append(
                tuple(in_core[v] for v in h.edges[e] if v in in_core))
            split.sides.append([
                _Side(comps[c], tuple(s), self._part(pieces[c], depth),
                      None if len(s) == 1 else self._part(Hypergraph(
                          pieces[c].n, pieces[c].edges + (tuple(s),)), depth))
                for c, s in sorted(shared.items())])
        if core:
            split.cores[frozenset()] = self._part(_induced(rest, [core])[0], depth)
        return split

    def _join(self, n: int, split: _Split, k: int) -> tuple[int, ...] | None:
        """Combine the pieces of a split at palette k."""
        zs = []  # per cut edge, Z's coloring of each side
        takers: list[tuple[int, tuple[int, ...]] | None] = []  # None: the core
        added = []  # the cut edges whose share the core must hold
        for t, sides in enumerate(split.sides):
            z: list[tuple[int, ...] | None] = []
            failed = []
            for i, side in enumerate(sides):
                z.append(self._colorable(
                    side.alone, k if len(side.shared) < k else k - 1))
                if z[-1] is None:
                    failed.append(i)
                    if len(failed) == 2:
                        return None
            zs.append(z)
            tries = failed
            if not failed:
                free = [i for i, side in enumerate(sides) if side.with_edge is None]
                if free:
                    takers.append((free[0], z[free[0]]))
                    continue
                if len(split.core_shared[t]) == 1:
                    takers.append(None)
                    continue
                tries = sorted(range(len(sides)), key=lambda i: len(sides[i].vertices))
            for i in tries:
                side = sides[i]
                u = z[i] if side.with_edge is None else self._colorable(side.with_edge, k)
                if u is not None:
                    takers.append((i, u))
                    break
            else:
                if failed or not split.core:
                    return None
                takers.append(None)
                added.append(t)
        colors = [0] * (n + 1)
        kc: tuple[int, ...] = ()  # the core's coloring
        if split.core:
            key = frozenset(added)
            if key not in split.cores:
                base = split.cores[frozenset()]
                split.cores[key] = self._part(Hypergraph(base.h.n, base.h.edges + tuple(
                    split.core_shared[t] for t in added)), base.depth)
            kc = self._colorable(split.cores[key], k)
            if kc is None:
                return None
            for v, c in zip(split.core, kc):
                colors[v] = c
        for t, sides in enumerate(split.sides):
            taker = takers[t]
            if taker is None:
                unique, skip = _unique(kc, split.core_shared[t]), -1
            else:
                skip, u = taker
                own = _unique(u, sides[skip].shared)
                # next to a core, the unique color is one the core misses
                unique = _free(kc, split.core_shared[t], k) if split.core else own
                _place(colors, sides[skip].vertices, u, own, unique)
            for j, side in enumerate(sides):
                if j != skip:
                    _place(colors, side.vertices, zs[t][j],
                           _free(zs[t][j], side.shared, k), unique)
        return tuple(colors[1:])


def cf_colorable(h: Hypergraph, k: int) -> Coloring | None:
    """A conflict-free coloring with at most k colors, or None if impossible."""
    if k < 1:
        raise ValueError(f"palette size must be >= 1, got {k}")
    return _ConflictFree(h).colorable(k)


def proper_colorable(h: Hypergraph, k: int) -> Coloring | None:
    """A proper coloring with at most k colors, or None if impossible."""
    if k < 1:
        raise ValueError(f"palette size must be >= 1, got {k}")
    return _search(h, k, kernels.PROPER)[0]


def _chi_exact(h: Hypergraph, k_max: int,
               colorable: Callable[[int], tuple[Coloring | None, int]]) -> ChiCfResult | None:
    """0 and the empty coloring when h has no vertex, else the first k in
    1..k_max that colorable (a witness or None, and the kernel nodes so far)
    answers with a witness."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if h.n == 0:
        return ChiCfResult(chi_cf=0, witness=Coloring(()), nodes=0)
    for k in range(1, k_max + 1):
        witness, nodes = colorable(k)
        if witness is not None:
            return ChiCfResult(chi_cf=k, witness=witness, nodes=nodes)
    return None


def chi_cf_exact(h: Hypergraph, k_max: int | None = None) -> ChiCfResult | None:
    """Smallest palette admitting a conflict-free coloring, with witness.

    Searches k = 1..k_max and returns None when every palette up to k_max
    fails; with no vertex the value is 0, the empty coloring's palette.
    The default cap max_degree+1 always suffices, so the default
    call never returns None. nodes counts the color kernel's nodes over
    the whole call; a 2-regular uniform part goes to the factor duality
    instead, adds no nodes, and raises SearchBudgetExceeded when its
    factor search runs out of nodes.
    """
    if k_max is None:
        k_max = h.max_degree + 1
    search = _ConflictFree(h)
    return _chi_exact(h, k_max, lambda k: (search.colorable(k), search.nodes))


def chi_proper_exact(h: Hypergraph, k_max: int | None = None) -> ChiCfResult | None:
    """Smallest palette admitting a proper coloring, with witness.

    None when no palette up to k_max works; with size-1 edges present no
    proper coloring exists at all. The default cap n covers every
    colorable instance. With no vertex the value is 0, as for chi_cf_exact.
    """
    if k_max is None:
        k_max = max(h.n, 1)
    total = 0

    def colorable(k: int) -> tuple[Coloring | None, int]:
        nonlocal total
        witness, nodes = _search(h, k, kernels.PROPER)
        total += nodes
        return witness, total

    return _chi_exact(h, k_max, colorable)
