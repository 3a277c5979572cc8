"""Exact {a,b}-factor search in multigraphs, plus the duality bridge.

A factor here is a set of edges giving every vertex degree exactly a or
exactly b. The search is complete: a None verdict is an exhaustive
refutation. It decomposes the graph over the block-cut tree and solves
each biconnected block with the degree-constrained kernel, once per
degree of its parent cut vertex, with each other cut vertex allowed every
degree its child blocks can complete to a or b; a tree DP then combines
the blocks.
The duality bridge turns a {1, r-1}-factor of the dual graph of a
2-regular r-uniform hypergraph into a conflict-free 2-coloring and back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import kernels
from .model import Hypergraph, HypergraphError, dual
from .verify import Coloring, is_conflict_free

DEFAULT_BUDGET = 10**8


class SearchBudgetExceeded(RuntimeError):
    """The search hit its node budget before reaching a verdict."""

    def __init__(self, nodes: int):
        super().__init__(f"factor search exceeded its node budget ({nodes} nodes)")
        self.nodes = nodes


class FactorAnomalyError(RuntimeError):
    """A produced witness failed re-verification; indicates an internal bug."""


@dataclass(frozen=True)
class Factor:
    """Selected edge indices (1-based) giving each vertex degree a or b."""

    selected: frozenset[int]
    a: int
    b: int


@dataclass(frozen=True)
class ParityObstruction:
    """Witness that no factor exists: with a and b both odd, a component on
    an odd number of vertices cannot carry all-odd degrees (their sum would
    be odd, but degree sums are even)."""

    component: tuple[int, ...]

    def __str__(self) -> str:
        return (
            f"component with {len(self.component)} vertices "
            f"(odd) starting at vertex {self.component[0]}")


def _require_graph(g: Hypergraph) -> None:
    if not g.is_graph():
        raise HypergraphError("factor search requires a 2-uniform hypergraph")


def _check_targets(a: int, b: int) -> None:
    if a < 1 or b < a:
        raise HypergraphError(f"degree targets need 0 < a <= b, got ({a}, {b})")


def factor_defects(g: Hypergraph, factor: Factor) -> list[int]:
    """Vertices whose selected degree is neither a nor b (empty = valid)."""
    _require_graph(g)
    deg = [0] * (g.n + 1)
    for idx in factor.selected:
        for v in g.edge(idx):
            deg[v] += 1
    return [v for v in range(1, g.n + 1) if deg[v] not in (factor.a, factor.b)]


def parity_precheck(g: Hypergraph, a: int, b: int) -> ParityObstruction | None:
    """Fast infeasibility certificate, or None when not refuted.

    None only means the parity argument does not apply; a full search is
    still required to decide existence.
    """
    _require_graph(g)
    _check_targets(a, b)
    if a % 2 == 0 or b % 2 == 0:
        return None
    for component in g.components:
        if len(component) % 2 == 1:
            return ParityObstruction(component)
    return None


def _biconnected_blocks(g: Hypergraph) -> tuple[list[list[int]], set[int]]:
    """Blocks as lists of 0-based edge indices, plus the cut vertices.

    Parallel edges between the same endpoints land in a common block. Every
    edge belongs to exactly one block; isolated vertices to none.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n + 1)]
    for i, (u, v) in enumerate(g.edges):
        adj[u].append((i, v))
        adj[v].append((i, u))
    disc = [0] * (g.n + 1)
    low = [0] * (g.n + 1)
    timer = 1
    edge_stack: list[int] = []
    blocks: list[list[int]] = []
    cuts: set[int] = set()

    for root in range(1, g.n + 1):
        if disc[root] or not adj[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
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
                blocks.append(sorted(block))
                if u == root:
                    root_children += 1
                else:
                    cuts.add(u)
        if root_children > 1:
            cuts.add(root)

    blocks.sort(key=lambda blk: blk[0])
    return blocks, cuts


@dataclass
class _Block:
    edges: list[int]  # global 0-based edge ids, ascending
    vertices: list[int]  # sorted global vertex ids
    cut_vertices: list[int]  # sorted; subset of vertices
    eu: list[int]  # the edges' endpoints as indices into vertices
    ev: list[int]
    parent_cut: int | None = None

    def degree(self, v: int) -> int:
        i = self.vertices.index(v)
        return self.eu.count(i) + self.ev.count(i)


def _sumset(parts: list[Iterable[int]], cap: int) -> set[int]:
    acc = {0}
    for part in parts:
        acc = {s + d for s in acc for d in part if s + d <= cap}
        if not acc:
            return acc
    return acc


def find_ab_factor(
    g: Hypergraph, a: int, b: int, budget: int = DEFAULT_BUDGET
) -> Factor | None:
    """Complete search for an {a,b}-factor.

    Returns a canonical witness or None after exhaustive refutation;
    raises SearchBudgetExceeded when the node budget runs out, so None is
    always a proof of nonexistence. Every kernel query is charged at least
    one node, so the budget also bounds the number of queries.

    The search splits into biconnected blocks and solves the block-cut
    tree of each component bottom-up, from a root block (the one holding
    the component's lowest-numbered edge). A block below the root is
    solved once per degree d of its parent cut vertex, keeping the first
    witness in kernel search order for each feasible d. Each other cut
    vertex c of the block may take any degree t - s with t in {a, b} and
    s a sum of feasible degrees of the child blocks hanging at c; every
    other vertex must reach a or b. The root block is solved once.

    The witness is the root block's first solution. Top-down, each cut
    vertex then takes target a if its child blocks can make up the
    difference, else b; the difference goes to the child blocks in order,
    each taking the smallest share the blocks after it can complete, and
    each child block contributes its witness for that share.
    """
    _require_graph(g)
    _check_targets(a, b)

    degrees = g.vertex_degrees()
    if any(d == 0 for d in degrees):
        return None  # an isolated vertex can never reach degree a >= 1

    blocks_raw, cuts = _biconnected_blocks(g)
    blocks = []
    for raw in blocks_raw:
        verts = sorted({v for eid in raw for v in g.edges[eid]})
        local = {v: i for i, v in enumerate(verts)}
        blocks.append(_Block(
            edges=raw,
            vertices=verts,
            cut_vertices=[v for v in verts if v in cuts],
            eu=[local[g.edges[eid][0]] for eid in raw],
            ev=[local[g.edges[eid][1]] for eid in raw],
        ))

    blocks_of_cut: dict[int, list[int]] = {}
    for bi, blk in enumerate(blocks):
        for c in blk.cut_vertices:
            blocks_of_cut.setdefault(c, []).append(bi)

    nodes_used = 0

    def solve(blk: _Block, allowed_at: dict[int, Iterable[int]]) -> list[int] | None:
        nonlocal nodes_used
        status, sel, spent = kernels.solve_degree_constrained(
            len(blk.vertices), blk.eu, blk.ev,
            [allowed_at.get(v, (a, b)) for v in blk.vertices],
            budget - nodes_used)
        nodes_used += max(spent, 1)
        if status == kernels.BUDGET or nodes_used > budget:
            raise SearchBudgetExceeded(nodes_used)
        return sel

    # per block: feasible parent-cut degree -> first witness for it
    witness: list[dict[int, list[int]]] = [{} for _ in blocks]
    # sumset of child contributions per (cut vertex, parent block)
    child_sum: dict[tuple[int, int], set[int]] = {}
    child_blocks: dict[tuple[int, int], list[int]] = {}

    selected: set[int] = set()

    # process each block-cut tree of the forest
    seen_block = [False] * len(blocks)
    for root_bi in range(len(blocks)):
        if seen_block[root_bi]:
            continue
        # orient the tree by BFS from the root block
        order = [root_bi]
        seen_block[root_bi] = True
        blocks[root_bi].parent_cut = None
        seen_cut: set[int] = set()
        qi = 0
        while qi < len(order):
            bi = order[qi]
            qi += 1
            for c in blocks[bi].cut_vertices:
                if c in seen_cut:
                    continue
                seen_cut.add(c)
                kids = [k for k in blocks_of_cut[c] if not seen_block[k]]
                # in a block-cut forest the first block reaching c sees every
                # other block of c undiscovered
                assert len(kids) == len(blocks_of_cut[c]) - 1
                child_blocks[(c, bi)] = kids
                for other in kids:
                    seen_block[other] = True
                    blocks[other].parent_cut = c
                    order.append(other)

        # solve blocks bottom-up
        for bi in reversed(order):
            blk = blocks[bi]
            allowed_at: dict[int, Iterable[int]] = {}
            for c in blk.cut_vertices:
                if c == blk.parent_cut:
                    continue
                sums = _sumset([witness[k].keys() for k in child_blocks[(c, bi)]], b)
                child_sum[(c, bi)] = sums
                top = blk.degree(c)
                allowed_at[c] = {t - s for t in (a, b) for s in sums if 0 <= t - s <= top}
                if not allowed_at[c]:
                    return None  # no degree at c suits its child blocks
            if blk.parent_cut is None:
                root_sel = solve(blk, allowed_at)
                if root_sel is None:
                    return None
                continue
            for d in range(min(blk.degree(blk.parent_cut), b) + 1):
                allowed_at[blk.parent_cut] = (d,)
                sel = solve(blk, allowed_at)
                if sel is not None:
                    witness[bi][d] = sel
            if not witness[bi]:
                return None  # the subtree below is infeasible outright

        # reconstruct: walk the tree top-down, fixing one witness per block
        pending = [(root_bi, root_sel)]
        while pending:
            bi, sel = pending.pop()
            blk = blocks[bi]
            chosen = [blk.edges[i] for i, flag in enumerate(sel) if flag]
            selected.update(eid + 1 for eid in chosen)
            for c in blk.cut_vertices:
                if c == blk.parent_cut:
                    continue
                kids = child_blocks[(c, bi)]
                sums = child_sum[(c, bi)]
                d = sum(c in g.edges[eid] for eid in chosen)
                target = next(t for t in (a, b) if t - d in sums)
                remainder = target - d
                for pos, kid in enumerate(kids):
                    tail = _sumset([witness[k].keys() for k in kids[pos + 1:]], b)
                    share = min(s for s in witness[kid] if remainder - s in tail)
                    remainder -= share
                    pending.append((kid, witness[kid][share]))
                assert remainder == 0

    factor = Factor(frozenset(selected), a, b)
    defects = factor_defects(g, factor)
    if defects:
        raise FactorAnomalyError(
            f"witness re-verification failed at vertices {defects[:5]}")
    return factor


def cf2_via_duality(h: Hypergraph, budget: int = DEFAULT_BUDGET) -> Coloring | None:
    """Conflict-free 2-coloring of a 2-regular r-uniform hypergraph, or a
    certified None when no such coloring exists.

    The hypergraph 2-colors conflict-freely exactly when its dual r-regular
    graph has a {1, r-1}-factor; vertices matching factor edges get color 1.
    """
    if h.regular_a != 2:
        raise HypergraphError("duality coloring requires a 2-regular hypergraph")
    r = h.uniform_r
    if r is None:
        raise HypergraphError("duality coloring requires a uniform hypergraph")
    if r < 2:
        raise HypergraphError(f"uniformity must be >= 2, got {r}")
    graph = dual(h)
    factor = find_ab_factor(graph, 1, r - 1, budget=budget)
    if factor is None:
        return None
    coloring = Coloring(tuple(
        1 if v in factor.selected else 2 for v in range(1, h.n + 1)))
    bad = is_conflict_free(h, coloring)
    if bad:
        raise FactorAnomalyError(
            f"duality produced a non-conflict-free coloring (edges {bad[:5]})")
    return coloring
