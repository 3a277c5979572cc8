import hashlib
import io
import math
import random
import time
from contextlib import redirect_stdout

import pytest

from cfhyper import (
    Hypergraph,
    cf_colorable,
    chi_cf_exact,
    chi_proper_exact,
    dual,
    greedy_cf_coloring,
    is_conflict_free,
    is_proper,
    proper_colorable,
    stats,
)
from cfhyper.constructions import (
    build_g_tr,
    complete_graph,
    gap_nested,
    k4e_gadget,
    odd_cycle,
    two_cliques,
)
from cfhyper import exact_cf, kernels
from cfhyper.cli import main
from cfhyper.exact_cf import _splits
from cfhyper.model import _induced
from cfhyper.kernels import available_backends

from corpus import fano_plane, octahedron, small_corpus


def test_single_edge():
    h = Hypergraph.from_edges(4, [(1, 2, 3, 4)])
    assert cf_colorable(h, 2) is not None
    assert cf_colorable(h, 1) is None
    assert chi_cf_exact(h).chi_cf == 2


def test_k4_needs_four():
    k4 = complete_graph(4)
    assert cf_colorable(k4, 3) is None
    res = chi_cf_exact(k4)
    assert res.chi_cf == 4
    assert is_conflict_free(k4, res.witness) == []
    assert res.witness.palette == 4


def test_c5_needs_three():
    res = chi_cf_exact(odd_cycle(5))
    assert res.chi_cf == 3
    assert chi_cf_exact(odd_cycle(7)).chi_cf == 3
    assert chi_cf_exact(odd_cycle(3)).chi_cf == 3


def test_fano_plane_three():
    res = chi_cf_exact(fano_plane())
    assert res.chi_cf == 3
    assert is_conflict_free(fano_plane(), res.witness) == []


def test_k4e_gadget_four():
    res = chi_cf_exact(k4e_gadget(4))
    assert res.chi_cf == 4
    assert chi_cf_exact(k4e_gadget(2)).chi_cf == 4  # plain K4
    assert cf_colorable(k4e_gadget(6), 3) is None  # needs at least 4


def test_gap_constructions():
    assert chi_cf_exact(gap_nested(1)).chi_cf == 2
    assert chi_cf_exact(gap_nested(2)).chi_cf == 3
    res = chi_cf_exact(gap_nested(3))
    assert res.chi_cf == 4
    assert chi_proper_exact(gap_nested(3)).chi_cf == 2
    assert chi_cf_exact(two_cliques(2)).chi_cf == 3
    assert chi_cf_exact(two_cliques(3)).chi_cf == 4


def test_duality_anchors():
    assert chi_cf_exact(dual(complete_graph(5))).chi_cf == 3
    assert chi_cf_exact(dual(octahedron())).chi_cf == 2


def test_above_k_max():
    k4 = complete_graph(4)
    assert chi_cf_exact(k4, k_max=3) is None
    with pytest.raises(ValueError):
        chi_cf_exact(k4, k_max=0)
    with pytest.raises(ValueError):
        cf_colorable(k4, 0)


def test_witness_minimality_and_nodes():
    # C5 is 2-regular and uniform, so the factor duality decides it and
    # the color kernel is never asked
    res = chi_cf_exact(odd_cycle(5))
    assert res.nodes == 0
    assert res.witness.palette == res.chi_cf
    assert cf_colorable(odd_cycle(5), res.chi_cf - 1) is None
    res = chi_cf_exact(complete_graph(4))
    assert res.nodes > 0
    assert res.witness.palette == res.chi_cf
    assert cf_colorable(complete_graph(4), res.chi_cf - 1) is None


def test_proper_oracle():
    assert chi_proper_exact(complete_graph(4)).chi_cf == 4
    assert chi_proper_exact(odd_cycle(5)).chi_cf == 3
    # the Fano plane is the classic non-2-colorable 3-uniform hypergraph
    assert chi_proper_exact(fano_plane()).chi_cf == 3
    # a singleton edge can never be properly colored
    assert proper_colorable(Hypergraph.from_edges(1, [(1,)]), 1) is None
    assert chi_proper_exact(Hypergraph.from_edges(1, [(1,)])) is None


def test_oracle_vs_greedy_and_proper_on_small_corpus():
    for h in small_corpus():
        st = stats(h)
        res = chi_cf_exact(h)
        assert res is not None
        assert is_conflict_free(h, res.witness) == []
        greedy = greedy_cf_coloring(h)
        assert res.chi_cf <= greedy.palette <= st.max_degree + 1
        if st.uniform_r in (2, 3):
            prop = chi_proper_exact(h)
            assert prop is not None and prop.chi_cf == res.chi_cf
            assert is_proper(h, prop.witness) == []


def test_edgeless():
    h = Hypergraph.from_edges(3, [])
    res = chi_cf_exact(h)
    assert res.chi_cf == 1 and res.witness.colors == (1, 1, 1)


def test_no_vertex_takes_no_color():
    h = Hypergraph(0, ())
    for exact in (chi_cf_exact, chi_proper_exact):
        res = exact(h)
        assert (res.chi_cf, res.witness.palette, res.nodes) == (0, 0, 0)


def test_two_colorability_matches_duality_on_2regular():
    # for 2-regular uniform hypergraphs, a 2-coloring exists exactly when
    # the dual regular graph has a {1, r-1}-factor
    from cfhyper import cf2_via_duality
    from corpus import petersen

    k33 = Hypergraph.from_edges(
        6, [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)])
    for g in (complete_graph(4), complete_graph(5), octahedron(),
              odd_cycle(5), petersen(), k33):
        h = dual(g)
        # chi_cf_exact decides these by the duality, so ask the kernel
        edges0 = [tuple(v - 1 for v in e) for e in h.edges]
        plain = kernels.color_search(h.n, edges0, 2, kernels.CONFLICT_FREE)[0]
        duality = cf2_via_duality(h)
        assert (plain is not None) == (duality is not None)
        if duality is not None:
            assert is_conflict_free(h, duality) == []


# --- 2-regular uniform parts go to the factor duality ------------------------

def _regular_multigraph(rng: random.Random, n: int, r: int) -> Hypergraph:
    """A random loopless r-regular multigraph on n vertices (n * r even),
    parallel edges allowed, as a 2-uniform hypergraph."""
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(r)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if all(u != v for u, v in pairs):
            return Hypergraph.from_edges(n, pairs)


def _two_regular_uniform(rng: random.Random) -> Hypergraph:
    """The dual of a random r-regular multigraph, r = 2..6: 2-regular and
    r-uniform, with parallel edges wherever the multigraph has them. Now
    and then the disjoint union with a second such dual, whose r may
    differ, so that only the parts are uniform. Relabelled."""
    n, edges = 0, []
    for _ in range(1 if rng.random() < 0.7 else 2):
        r = rng.randint(2, 6)
        size = rng.choice([s for s in range(2, 9) if s * r % 2 == 0 and s * r <= 20])
        part = dual(_regular_multigraph(rng, size, r))
        edges += [tuple(v + n for v in e) for e in part.edges]
        n += part.n
    return _relabel(rng, n, edges)


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_two_regular_uniform_parts_agree_with_plain_kernel(monkeypatch, backend):
    impl = available_backends()[backend]
    monkeypatch.setattr(kernels, "color_search", impl.color_search)
    rng = random.Random(31337)
    corpus = [_two_regular_uniform(rng) for _ in range(300)]
    assert any(len(h.components) > 1 for h in corpus)
    assert any(len(set(h.edges)) < h.m for h in corpus)  # parallel edges
    calls = _counted(monkeypatch)
    for h in corpus:
        edges0 = [tuple(v - 1 for v in e) for e in h.edges]
        for k in (1, 2, 3):
            plain = impl.color_search(h.n, edges0, k, kernels.CONFLICT_FREE)[0]
            got = cf_colorable(h, k)
            assert (got is None) == (plain is None), (h, k)
            if got is not None:
                assert is_conflict_free(h, got) == [] and got.palette <= k, (h, k)
    assert calls[0] == 0


@pytest.mark.parametrize("t, r", [(1, 13), (1, 21), (3, 21)])
def test_g_tr_duals_never_reach_the_kernel(monkeypatch, t, r):
    # no {1, r-1}-factor in g_tr(t, r) is the paper's theorem, so its dual
    # needs Delta + 1 = 3 colors
    h = dual(build_g_tr(t, r)[0])
    calls = _counted(monkeypatch)
    res = chi_cf_exact(h)
    assert res.chi_cf == 3 and is_conflict_free(h, res.witness) == []
    assert calls[0] == 0 and res.nodes == 0


@pytest.mark.parametrize("m", [21, 101])
def test_odd_two_regular_4uniform_never_reaches_the_kernel(monkeypatch, m):
    # each edge of a 2-coloring would hold an odd number of color-1
    # vertices, m odd numbers that sum to twice the color-1 vertices
    h = dual(_regular_multigraph(random.Random(m), m, 4))
    assert h.uniform_r == 4 and h.regular_a == 2 and h.m == m
    calls = _counted(monkeypatch)
    res = chi_cf_exact(h)
    assert res.chi_cf == 3 and is_conflict_free(h, res.witness) == []
    assert calls[0] == 0 and res.nodes == 0


# --- the split at separating edges -------------------------------------------

def _glued(rng: random.Random, n_max: int = 10, m_max: int = 9) -> Hypergraph:
    """Small random blocks on disjoint vertex groups, some of them joined
    by gluing edges that take one or more vertices from each of two or
    three groups. Size-1 edges, a duplicated edge and groups left apart
    all occur; a glued group whose part in the gluing edge is neither one
    vertex nor the whole group needs the cap fallback at small palettes.
    """
    n = rng.randint(1, n_max)
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    groups = []
    while verts:
        size = rng.randint(1, 4)
        groups.append(verts[:size])
        verts = verts[size:]
    edges = []
    for g in groups:
        for _ in range(rng.randint(0, len(g))):
            edges.append(rng.sample(g, rng.randint(1, min(3, len(g)))))
    for _ in range(rng.randint(0, len(groups)) if len(groups) > 1 else 0):
        glued = rng.sample(groups, rng.randint(2, min(3, len(groups))))
        edges.append([v for g in glued for v in rng.sample(g, rng.randint(1, len(g)))])
    if edges and rng.random() < 0.2:
        edges.append(rng.choice(edges))
    rng.shuffle(edges)
    return Hypergraph.from_edges(n, edges[:m_max])


def _hung(rng: random.Random) -> Hypergraph:
    """A small random core with up to four pieces hung off it, or off one
    another, each by an edge taking one or two vertices of the piece it
    hangs from and some of its own. A piece is a small random block or a
    diamond (K_4 less the edge of its last two vertices) hung by those
    two, which share a color in every 3-coloring of it, so at k = 3 the
    edge needs a unique color where it hangs."""
    n = 0
    edges: list[tuple[int, ...]] = []

    def block(size: int) -> list[int]:
        nonlocal n
        n += size
        vs = list(range(n - size + 1, n + 1))
        for _ in range(rng.randint(0, size)):
            edges.append(tuple(rng.sample(vs, rng.randint(1, min(3, size)))))
        return vs

    core = block(rng.randint(2, 4))
    pieces = [core]
    for _ in range(rng.randint(1, 4)):
        base = rng.choice(pieces) if rng.random() < 0.3 else core
        if rng.random() < 0.4:
            n += 4
            a, b, c, d = range(n - 3, n + 1)
            edges.extend([(a, b), (a, c), (a, d), (b, c), (b, d)])
            new, hang = [a, b, c, d], [c, d]
        else:
            new = block(rng.randint(1, 3))
            hang = rng.sample(new, rng.randint(1, len(new)))
        edges.append(tuple(rng.sample(base, rng.randint(1, min(2, len(base)))) + hang))
        pieces.append(new)
    return _relabel(rng, n, edges)


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_split_agrees_with_plain_kernel(monkeypatch, backend):
    impl = available_backends()[backend]
    monkeypatch.setattr(kernels, "color_search", impl.color_search)
    rng, hung = random.Random(90210), random.Random(4711)
    split = capped = cored = 0
    for h in [_glued(rng) for _ in range(1500)] + [_hung(hung) for _ in range(300)]:
        edges0 = [tuple(v - 1 for v in e) for e in h.edges]
        if h.connected and h.n > 1:
            seps = _splits(h)
            split += bool(seps)
            capped += any(cap >= 2 for cap, _, _ in seps)
            cored += any(core for _, _, core in seps)
        chi = None
        for k in range(1, h.max_degree + 2):
            plain = impl.color_search(h.n, edges0, k, kernels.CONFLICT_FREE)[0]
            got = cf_colorable(h, k)
            assert (got is None) == (plain is None), (h, k)
            if got is not None:
                assert is_conflict_free(h, got) == [] and got.palette <= k, (h, k)
                chi = chi or k
        # one search over every palette keeps its parts' answers across k
        res = chi_cf_exact(h)
        assert res.chi_cf == chi and is_conflict_free(h, res.witness) == [], h
    assert split >= 450 and capped >= 300 and cored >= 300, (split, capped, cored)


def _digest_corpus() -> list[Hypergraph]:
    """The 750 instances the golden digest is taken over."""
    rng, hung = random.Random(1618), random.Random(1729)
    corpus = [_glued(rng, 14, 14) for _ in range(400)]
    return corpus + [_hung(hung) for _ in range(200)] + list(small_corpus())


def test_chi_cf_exact_matches_golden_digest():
    # the values were recorded before 2-regular uniform parts went to the
    # factor duality, the witnesses and kernel nodes after
    digest, values = hashlib.sha256(), hashlib.sha256()
    for h in _digest_corpus():
        res = chi_cf_exact(h)
        digest.update(repr((res.chi_cf, res.witness.colors, res.nodes)).encode())
        values.update(repr(res.chi_cf).encode())
    # the values alone, which no change of route may move
    assert values.hexdigest() == (
        "9c1490ce84472524853a7ee514cfa9e641a164486d5eca6ad424478828e92bef")
    assert digest.hexdigest() == (
        "bf3f4386ad5efdfbcdc915e9e961206605d3ee35f8f571d1328d1b9a7293f16c")


def test_parts_are_asked_at_rising_palettes(monkeypatch):
    # a part keeps only its witness: it must never be asked again at a
    # palette that failed, nor below the one its witness answered. Every
    # ask is recorded, also those the witness answers without a search
    asked: dict[exact_cf._Part, list[int]] = {}
    colorable = exact_cf._ConflictFree._colorable

    def recorded(self, part: exact_cf._Part, k: int) -> tuple[int, ...] | None:
        asked.setdefault(part, []).append(k)
        return colorable(self, part, k)

    monkeypatch.setattr(exact_cf._ConflictFree, "_colorable", recorded)
    for h in _digest_corpus() + [gap_nested(6), two_cliques(8), k4e_gadget(20)]:
        chi_cf_exact(h)
        for k in range(1, h.max_degree + 2):
            cf_colorable(h, k)
    assert len(asked) > 20000 and sum(len(ks) > 1 for ks in asked.values()) > 500
    assert all(a < b for ks in asked.values() for a, b in zip(ks, ks[1:]))


def test_splits_ignore_the_order_of_the_non_root_blocks(monkeypatch):
    # the tree is rooted at the last block, which holds edge 0; where
    # the others are listed moves neither the ranking nor its ties
    parts = [p for h in _digest_corpus() for p in _induced(h, h.components) if p.n > 1]
    assert len(parts) == 875
    expected = [_splits(p) for p in parts]
    rng = random.Random(31)
    blocks = exact_cf._biconnected_blocks

    def shuffled(n, pairs):
        found, hangs, cuts = blocks(n, pairs)
        below = list(zip(found, hangs))[:-1]
        rng.shuffle(below)
        return [b for b, _ in below] + found[-1:], [c for _, c in below] + hangs[-1:], cuts

    monkeypatch.setattr(exact_cf, "_biconnected_blocks", shuffled)
    for _ in range(3):
        assert [_splits(p) for p in parts] == expected


@pytest.mark.parametrize("h, value", [
    (gap_nested(6), 7),
    (two_cliques(8), 9),
    (k4e_gadget(20), 4),
])
def test_delta_plus_one_families(h, value):
    # the paper's families with f(r, Delta) = Delta + 1, decided part by part
    start = time.perf_counter()
    res = chi_cf_exact(h)
    assert time.perf_counter() - start < 1.0
    assert res.chi_cf == value
    assert is_conflict_free(h, res.witness) == [] and res.witness.palette == value


def test_gap_nested_5_through_the_cli(tmp_path):
    hg = tmp_path / "gap5.hg"
    assert main(["gen", "--construction", "gap_nested", "--delta", "5",
                 "-o", str(hg)]) == 0
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["chi-cf", str(hg)]) == 0
    assert out.getvalue().splitlines()[0] == "6"
    # gap_nested(4) took 19,300,373 kernel nodes in one search of the whole
    assert chi_cf_exact(gap_nested(4)).nodes < 1000


def _relabel(rng: random.Random, n: int, edges: list[tuple[int, ...]]) -> Hypergraph:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return Hypergraph.from_edges(n, [[perm[v - 1] for v in e] for e in edges])


def _counted(monkeypatch) -> list[int]:
    """Count the calls of kernels.color_search from here on."""
    calls = [0]
    search = kernels.color_search

    def counted(*args):
        calls[0] += 1
        return search(*args)

    monkeypatch.setattr(kernels, "color_search", counted)
    return calls


def _searches(monkeypatch) -> list[exact_cf._ConflictFree]:
    """The conflict-free searches made from here on."""
    made = []

    class Recorded(exact_cf._ConflictFree):
        def __init__(self, h: Hypergraph):
            super().__init__(h)
            made.append(self)

    monkeypatch.setattr(exact_cf, "_ConflictFree", Recorded)
    return made


def _depths(monkeypatch) -> list[int]:
    """The depth of every part the searches create from here on."""
    depths = []
    part = exact_cf._ConflictFree._part

    def recorded(self, h: Hypergraph, depth: int) -> exact_cf._Part:
        depths.append(depth)
        return part(self, h, depth)

    monkeypatch.setattr(exact_cf._ConflictFree, "_part", recorded)
    return depths


def _parts(search: exact_cf._ConflictFree) -> int:
    """The parts a search has created."""
    return exact_cf._PARTS_PER_VERTEX * search.n - search.parts_left


@pytest.mark.parametrize("name", ["reversed path", "chain of K4s", "tree of triangles"])
def test_split_size_stays_linear(monkeypatch, name):
    # asking U_i anew when |S_i| = 1 makes the parts grow past 2 per
    # vertex on all three; taking the first separating edge by index
    # hands the chain of K4s to the kernel whole once the split is
    # _MAX_DEPTH deep (over a billion nodes); asking U of the side with
    # |S_i| = 2 before the free U of the other makes the parts n^1.58 on
    # the tree of triangles; ranking single-edge splits by index instead
    # of by largest piece peels one vertex per level, _MAX_DEPTH deep
    if name == "reversed path":
        n, value = 200, 2
        h = Hypergraph.from_edges(n, [(v, v + 1) for v in range(n - 1, 0, -1)])
    elif name == "tree of triangles":
        # two copies of the tree joined by {1, 2, first vertex of the copy}
        n, value = 3, 3
        edges = [(1, 2), (1, 3), (2, 3)]
        for _ in range(6):
            edges += [tuple(v + n for v in e) for e in edges] + [(1, 2, n + 1)]
            n *= 2
        h = Hypergraph.from_edges(n, edges)
    else:
        n, value = 200, 4
        edges = [(4 * c + i, 4 * c + j) for c in range(50)
                 for i in range(1, 5) for j in range(i + 1, 5)]
        edges += [(4 * c + 4, 4 * c + 5) for c in range(49)]
        h = _relabel(random.Random(4), n, edges)
    calls, searches = _counted(monkeypatch), _searches(monkeypatch)
    depths = _depths(monkeypatch)
    res = chi_cf_exact(h)
    assert res.chi_cf == value and is_conflict_free(h, res.witness) == []
    assert calls[0] <= n and res.nodes <= 4 * n
    assert _parts(searches[0]) <= 2 * n
    assert max(depths) <= 2 * math.log2(n)


def test_comb_is_cut_in_one_split(monkeypatch):
    # a 400-cycle with a pendant edge at every vertex: every pendant edge
    # separates one vertex, and one split around the cycle cuts them all.
    # The core is then a cycle, which the factor duality decides; cut one
    # pendant per split, the split stops _MAX_DEPTH deep and hands the
    # rest to the kernel
    n = 400
    edges = [(v, v % n + 1) for v in range(1, n + 1)]
    edges += [(v, v + n) for v in range(1, n + 1)]
    h = Hypergraph.from_edges(2 * n, edges)
    calls, searches = _counted(monkeypatch), _searches(monkeypatch)
    res = chi_cf_exact(h)
    assert res.chi_cf == 2 and is_conflict_free(h, res.witness) == []
    assert calls[0] == 0
    assert _parts(searches[0]) <= h.n


def _hyper_comb(cycle: int, diamonds: bool, wide: bool) -> Hypergraph:
    """An odd cycle with, for each cycle edge {v, w}, a pendant vertex p
    and the edge {v, w, p}, or a diamond whose two degree-2 vertices a, b
    hang by {v, w, a, b}; wide adds {1, 2, 3, p'} for one more pendant
    p', which no palette below 4 can cut off."""
    edges: list[tuple[int, ...]] = [(v, v % cycle + 1) for v in range(1, cycle + 1)]
    n = cycle
    for v in range(1, cycle + 1):
        if diamonds:
            a, b, c, d = n + 1, n + 2, n + 3, n + 4
            edges += [(c, d), (c, a), (c, b), (d, a), (d, b), (v, v % cycle + 1, a, b)]
            n += 4
        else:
            edges.append((v, v % cycle + 1, n + 1))
            n += 1
    if wide:
        edges.append((1, 2, 3, n + 1))
        n += 1
    return Hypergraph.from_edges(n, edges)


@pytest.mark.parametrize("cycle, diamonds, wide", [
    (41, False, False), (41, False, True), (15, True, False), (15, True, True)])
def test_hyper_combs_stay_linear(monkeypatch, cycle, diamonds, wide):
    # each hanging edge splits the instance into the core and a small
    # side with |S| >= 2 in the core; cut one per split, Z and U of the
    # core would both recurse into the rest, doubling the parts per level.
    # The diamonds' U fails at k = 3, so the core must take their edges.
    h = _hyper_comb(cycle, diamonds, wide)
    edges0 = [tuple(v - 1 for v in e) for e in h.edges]
    plain = kernels.color_search(h.n, edges0, 3, kernels.CONFLICT_FREE)[0]
    calls, searches = _counted(monkeypatch), _searches(monkeypatch)
    got = cf_colorable(h, 3)
    assert got is not None and plain is not None
    assert is_conflict_free(h, got) == [] and got.palette <= 3
    assert calls[0] <= 2 * cycle + 1
    assert _parts(searches[0]) <= h.n
    assert cf_colorable(h, 2) is None  # the odd cycle


@pytest.mark.parametrize("per_vertex", [0, 1])
def test_parts_bound_hands_parts_to_the_kernel(monkeypatch, per_vertex):
    # past the bound on parts a part is searched whole; the answers and
    # witnesses stay exact
    monkeypatch.setattr(exact_cf, "_PARTS_PER_VERTEX", per_vertex)
    rng = random.Random(2024)
    for _ in range(200):
        h = _hung(rng)
        search = exact_cf._ConflictFree(h)
        edges0 = [tuple(v - 1 for v in e) for e in h.edges]
        for k in range(1, h.max_degree + 2):
            plain = kernels.color_search(h.n, edges0, k, kernels.CONFLICT_FREE)[0]
            got = search.colorable(k)
            assert (got is None) == (plain is None), (h, k)
            assert got is None or is_conflict_free(h, got) == [], (h, k)
        if per_vertex == 0:  # nothing is split, components aside
            assert search.parts_left >= -1 - len(h.components)


def _milp_colorable(h: Hypergraph, k: int) -> bool:
    """Conflict-free k-colorability as a 0/1 program, solved by HiGHS.

    x[v, c] says vertex v has color c, u[e, c] that color c occurs exactly
    once in edge e: sum_v x[v, c] >= u[e, c] and
    sum_v x[v, c] <= 1 + (|e| - 1) * (1 - u[e, c]). Every vertex takes
    one color, every edge some unique color, and vertex 1 color 1.
    """
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    nx_, nu = h.n * k, h.m * k
    x = lambda v, c: (v - 1) * k + c  # noqa: E731
    u = lambda e, c: nx_ + e * k + c  # noqa: E731
    rows, lo, hi = [], [], []

    def constrain(coeffs: dict[int, int], low: float, high: float) -> None:
        rows.append(coeffs)
        lo.append(low)
        hi.append(high)

    for v in range(1, h.n + 1):
        constrain({x(v, c): 1 for c in range(k)}, 1, 1)
    for e, edge in enumerate(h.edges):
        constrain({u(e, c): 1 for c in range(k)}, 1, k)
        for c in range(k):
            row = {x(v, c): 1 for v in edge}
            constrain({**row, u(e, c): -1}, 0, len(edge))
            constrain({**row, u(e, c): len(edge) - 1}, -1, len(edge))
    constrain({x(1, 0): 1}, 1, 1)
    a = sparse.lil_array((len(rows), nx_ + nu))
    for i, row in enumerate(rows):
        for j, coeff in row.items():
            a[i, j] = coeff
    res = optimize.milp(
        c=[0] * (nx_ + nu), integrality=[1] * (nx_ + nu),
        bounds=optimize.Bounds(0, 1),
        constraints=optimize.LinearConstraint(a.tocsr(), lo, hi))
    assert res.status in (0, 2), res.message  # solved, or proved infeasible
    return res.status == 0


@pytest.mark.parametrize("h, k", [
    (gap_nested(4), 4), (gap_nested(4), 5),
    (k4e_gadget(10), 3), (k4e_gadget(10), 4),
    (two_cliques(4), 4), (two_cliques(4), 5),
])
def test_split_agrees_with_milp(h, k):
    assert (cf_colorable(h, k) is not None) == _milp_colorable(h, k)
