import hashlib
import random
import time

import pytest

from cfhyper import (
    Hypergraph,
    HypergraphError,
    SearchBudgetExceeded,
    cf2_via_duality,
    dual,
    factor_defects,
    find_ab_factor,
    is_conflict_free,
    parity_precheck,
)
from cfhyper.constructions import build_g_tr, build_h_block, complete_graph, odd_cycle
from cfhyper import factors, kernels
from cfhyper.model import _biconnected_blocks

from corpus import (
    chain_of_k5,
    octahedron,
    petersen,
    random_uniform_hypergraph,
    ring_of_k4,
)


def test_parity_precheck_k5():
    cert = parity_precheck(complete_graph(5), 1, 3)
    assert cert is not None
    assert cert.component == (1, 2, 3, 4, 5)
    assert "odd" in str(cert)


def test_parity_precheck_feasible_cases():
    assert parity_precheck(octahedron(), 1, 3) is None
    assert parity_precheck(build_g_tr(1, 7)[0], 1, 6) is None  # mixed parity
    # even component sizes pass even with both targets odd
    assert parity_precheck(complete_graph(6), 1, 3) is None


def test_parity_precheck_componentwise():
    # K4 plus a disjoint triangle: the triangle is the odd component
    edges = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    edges += [(5, 6), (6, 7), (5, 7)]
    g = Hypergraph.from_edges(7, edges)
    cert = parity_precheck(g, 1, 1)
    assert cert is not None and cert.component == (5, 6, 7)


def test_parity_precheck_reports_first_odd_component():
    # components {1,4,6}, {2,5}, {3,7,8,9,10}: two odd ones, interleaved
    # ids; the certificate is the one holding the smallest vertex
    g = Hypergraph.from_edges(
        10, [(4, 6), (1, 6), (2, 5), (8, 9), (3, 10), (7, 10), (8, 10)])
    cert = parity_precheck(g, 1, 3)
    assert cert is not None and cert.component == (1, 4, 6)


def test_biconnected_blocks_bowtie():
    # two triangles sharing vertex 3
    g = Hypergraph.from_edges(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
    blocks, hangs, cuts = _biconnected_blocks(g.n, g.edges)
    assert cuts == {3}
    # bottom-up: the root block, holding edge 0, comes last and hangs from 0
    assert blocks == [[3, 4, 5], [0, 1, 2]] and hangs == [3, 0]


def test_biconnected_blocks_bridge_and_parallel():
    # parallel pair forms a block; the bridge is its own block
    g = Hypergraph.from_edges(3, [(1, 2), (1, 2), (2, 3)])
    blocks, _, cuts = _biconnected_blocks(g.n, g.edges)
    assert cuts == {2}
    assert sorted(sorted(b) for b in blocks) == [[0, 1], [2]]


def test_g17_has_no_16_factor():
    g, _ = build_g_tr(1, 7)
    assert find_ab_factor(g, 1, 6) is None


def test_g19_has_no_18_factor():
    g, _ = build_g_tr(1, 9)
    assert find_ab_factor(g, 1, 8) is None


def _relabelled(g, seed):
    rng = random.Random(seed)
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    edges = [[perm[v - 1] for v in e] for e in g.edges]
    rng.shuffle(edges)
    return Hypergraph.from_edges(g.n, edges)


@pytest.mark.parametrize("r", [11, 13])
def test_relabelled_g_tr_is_refuted_under_the_default_budget(r):
    # the kernel alone took the whole default budget here (about 21 s)
    g, _ = build_g_tr(1, r)
    for seed in range(3):
        h = _relabelled(g, seed)
        start = time.perf_counter()
        assert find_ab_factor(h, 1, r - 1) is None
        assert time.perf_counter() - start < 1.0, seed


@pytest.mark.parametrize("t, r", [(1, 21), (3, 21)])
def test_g_tr_21_is_refuted_without_the_kernel(monkeypatch, t, r):
    counts = _count_queries(monkeypatch)
    g, _ = build_g_tr(t, r)
    assert find_ab_factor(g, t, r - t) is None
    assert counts["kernel"] == 0 and counts["refuted"] > 0


def test_k5_has_no_13_factor_by_search():
    assert find_ab_factor(complete_graph(5), 1, 3) is None


def test_k9_parity_for_even_regularity():
    # complete graph on r+1 vertices, even r: both targets odd, odd order
    cert = parity_precheck(complete_graph(9), 1, 7)
    assert cert is not None and len(cert.component) == 9


def test_octahedron_13_factor():
    g = octahedron()
    f = find_ab_factor(g, 1, 3)
    assert f is not None
    assert factor_defects(g, f) == []


def test_petersen_12_factor():
    g = petersen()
    f = find_ab_factor(g, 1, 2)
    assert f is not None
    assert factor_defects(g, f) == []


def test_perfect_matching_as_11_factor():
    g = Hypergraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    f = find_ab_factor(g, 1, 1)
    assert f is not None
    assert sorted(f.selected) in ([1, 3], [2, 4])
    assert find_ab_factor(odd_cycle(5), 1, 1) is None


def test_complement_of_16_factor():
    # in an r-regular graph the complement of a {1, r-1}-factor is one too
    g = octahedron()  # 4-regular
    f = find_ab_factor(g, 1, 3)
    complement = frozenset(range(1, g.m + 1)) - f.selected
    from cfhyper import Factor
    assert factor_defects(g, Factor(complement, 1, 3)) == []


def test_determinism():
    g = octahedron()
    assert find_ab_factor(g, 1, 3) == find_ab_factor(g, 1, 3)


def test_budget_exceeded_raises():
    # a factor exists, but the 12 blocks need at least 12 kernel queries
    g = chain_of_k5(12)
    with pytest.raises(SearchBudgetExceeded):
        find_ab_factor(g, 1, 4, budget=11)


def _cut_heavy(rng):
    """One or two trees of small blobs, each blob a path from a vertex
    already placed plus up to three more edges (parallel ones too), with
    the vertices renumbered and the edges shuffled."""
    n = 0
    edges = []
    for _ in range(1 + (rng.random() < 0.25)):
        n += 1
        verts = [n]
        for _ in range(rng.randint(2, 6)):
            hub = rng.choice(verts)
            size = rng.randint(1, 3)
            blob = [hub, *range(n + 1, n + 1 + size)]
            n += size
            edges.extend(zip(blob, blob[1:]))
            for _ in range(rng.randint(0, 3)):
                edges.append(tuple(rng.sample(blob, 2)))
            verts.extend(blob[1:])
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    edges = [(perm[u - 1], perm[v - 1]) for u, v in edges]
    rng.shuffle(edges)
    return Hypergraph.from_edges(n, edges)


def _digest_queries():
    """The 1,818 (graph, a, b) queries the golden digest is taken over."""
    rng = random.Random(2718)
    graphs = [_cut_heavy(rng) for _ in range(300)]
    for g in graphs + [ring_of_k4(5), octahedron(), petersen()]:
        for a, b in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (1, 4)]:
            yield g, a, b


def test_factor_witnesses_match_golden_digest():
    # recorded from the earlier code, in which find_ab_factor oriented each
    # block-cut tree by a breadth-first search of its own; 680 of the 1,818
    # queries have a factor
    digest = hashlib.sha256()
    for g, a, b in _digest_queries():
        f = find_ab_factor(g, a, b)
        digest.update(repr(None if f is None else sorted(f.selected)).encode())
    assert digest.hexdigest() == (
        "56cdeda90c8d2c34dedc0cc3d085f333791572c8ffc760869f8a0461084974e3")


@pytest.mark.parametrize("backend", sorted(kernels.available_backends()))
def test_factor_kernel_effort_on_the_digest_queries(monkeypatch, backend):
    # the witnesses alone would let a change send extra, unsolvable
    # queries to the kernel; every backend explores the same nodes
    solve = kernels.available_backends()[backend].solve_degree_constrained
    calls = nodes = 0

    def counted(*args):
        nonlocal calls, nodes
        status, sel, spent = solve(*args)
        calls, nodes = calls + 1, nodes + spent
        return status, sel, spent

    monkeypatch.setattr(kernels, "solve_degree_constrained", counted)
    for g, a, b in _digest_queries():
        find_ab_factor(g, a, b)
    assert (calls, nodes) == (7889, 5313)


def test_isolated_vertex_means_none():
    g = Hypergraph.from_edges(3, [(1, 2)])
    assert find_ab_factor(g, 1, 1) is None


def test_invalid_targets():
    g = complete_graph(4)
    with pytest.raises(HypergraphError):
        find_ab_factor(g, 0, 2)
    with pytest.raises(HypergraphError):
        find_ab_factor(g, 3, 2)
    with pytest.raises(HypergraphError):
        parity_precheck(g, -1, 1)
    with pytest.raises(HypergraphError):
        find_ab_factor(Hypergraph.from_edges(3, [(1, 2, 3)]), 1, 2)


def _brute_force_exists(g, a, b) -> bool:
    """Whether some edge subset is an {a,b}-factor, trying all 2^m subsets
    in Gray-code order so that each step toggles one edge."""
    deg = [0] * (g.n + 1)
    bad = g.n  # vertices whose degree is neither a nor b; a >= 1
    for i in range(1, 1 << g.m):
        if bad == 0:
            return True
        bit = (i & -i).bit_length() - 1
        step = 1 if (i ^ i >> 1) >> bit & 1 else -1
        for v in g.edges[bit]:
            bad += (deg[v] in (a, b)) - (deg[v] + step in (a, b))
            deg[v] += step
    return bad == 0


def test_factor_against_brute_force():
    """Cross-validate the block-decomposed search against subset enumeration."""
    rng = random.Random(4242)
    for trial in range(80):
        n = rng.randint(2, 7)
        m = rng.randint(1, 9)
        edges = []
        for _ in range(m):
            u, v = rng.sample(range(1, n + 1), 2)
            edges.append((min(u, v), max(u, v)))
        g = Hypergraph.from_edges(n, edges)
        a = rng.randint(1, 2)
        b = rng.randint(a, 3)
        result = find_ab_factor(g, a, b)
        assert (result is not None) == _brute_force_exists(g, a, b), (g, a, b)
        if result is not None:
            assert factor_defects(g, result) == []


def test_factor_against_brute_force_cut_heavy():
    """Same cross-validation on graphs glued at cut vertices (deep trees)."""
    rng = random.Random(777)
    for trial in range(40):
        # chain 3-5 small blobs, consecutive blobs sharing one vertex
        edges = []
        anchor = 1
        next_free = 2
        for _ in range(rng.randint(3, 5)):
            size = rng.randint(1, 3)  # blob vertices beyond the anchor
            blob = [anchor] + list(range(next_free, next_free + size))
            next_free += size
            for _ in range(rng.randint(1, 4)):
                u, v = rng.sample(blob, 2)
                edges.append((min(u, v), max(u, v)))
            anchor = blob[-1]
        n = next_free - 1
        g = Hypergraph.from_edges(n, edges)
        a = rng.randint(1, 2)
        b = rng.randint(a, 3)
        result = find_ab_factor(g, a, b)
        assert (result is not None) == _brute_force_exists(g, a, b), (g, a, b)
        if result is not None:
            assert factor_defects(g, result) == []


def _glue_blobs(rng, edges, hub, next_free, count):
    """Glue ``count`` small connected blobs to ``hub``, each a path of one
    or two new vertices from the hub plus up to one more edge (possibly a
    parallel one); returns the next free vertex id and the new vertices."""
    new = []
    for _ in range(count):
        blob = [hub, *range(next_free, next_free + rng.randint(1, 2))]
        next_free += len(blob) - 1
        edges.extend(zip(blob, blob[1:]))
        for _ in range(rng.randint(0, 1)):
            edges.append(tuple(rng.sample(blob, 2)))
        new.extend(blob[1:])
    return next_free, new


def test_factor_against_brute_force_star_shaped():
    """Cross-validation where one cut vertex carries 2-4 child blocks, and
    a vertex of one of them carries 2-4 more: the hub shape of g_tr."""
    rng = random.Random(31337)
    verdicts = {True: 0, False: 0}
    trials = 0
    while trials < 60:
        edges = []
        next_free, level1 = _glue_blobs(rng, edges, 1, 2, rng.randint(2, 4))
        next_free, _ = _glue_blobs(
            rng, edges, rng.choice(level1), next_free, rng.randint(2, 4))
        if len(edges) > 14:
            continue
        trials += 1
        g = Hypergraph.from_edges(next_free - 1, edges)
        assert 1 in _biconnected_blocks(g.n, g.edges)[2]
        a = rng.randint(1, 2)
        b = a + trials % 4
        result = find_ab_factor(g, a, b)
        expected = _brute_force_exists(g, a, b)
        assert (result is not None) == expected, (g, a, b)
        if result is not None:
            assert factor_defects(g, result) == []
        verdicts[expected] += 1
    assert min(verdicts.values()) >= 10, verdicts


def _count_queries(monkeypatch):
    """Counters of kernel calls, signed-sum tests and signed-sum refutations.

    A query the test refutes never reaches the kernel."""
    counts = {"kernel": 0, "tests": 0, "refuted": 0}
    solve = kernels.solve_degree_constrained
    refute = factors._SignedSum.refute

    def counted_solve(*args):
        counts["kernel"] += 1
        return solve(*args)

    def counted_refute(self, allowed):
        counts["tests"] += 1
        signs = refute(self, allowed)
        counts["refuted"] += signs is not None
        return signs

    monkeypatch.setattr(kernels, "solve_degree_constrained", counted_solve)
    monkeypatch.setattr(factors._SignedSum, "refute", counted_refute)
    return counts


@pytest.mark.parametrize("budget", [0, 1, 2, 5, 30, 200, 1000])
@pytest.mark.parametrize("case", ["ring_of_k4(14)", "g_tr(1,9)"])
def test_budget_bounds_kernel_calls(monkeypatch, case, budget):
    # every block query is charged at least one node, also when the
    # signed-sum test refutes it and the kernel is never called
    g, a, b = ((ring_of_k4(14), 2, 4) if case == "ring_of_k4(14)"
               else (build_g_tr(1, 9)[0], 1, 8))
    counts = _count_queries(monkeypatch)
    try:
        find_ab_factor(g, a, b, budget=budget)
    except SearchBudgetExceeded:
        pass
    assert 0 < counts["tests"] <= budget + 1
    assert counts["kernel"] + counts["refuted"] <= budget + 1


def test_ring_of_k4_is_fast():
    # profile enumeration took 31.6 s here: 16,440 kernel calls. Every
    # query is charged a node, so the budget caps the queries at 1000
    g = ring_of_k4(14)
    f = find_ab_factor(g, 2, 4, budget=1000)
    assert f is not None and factor_defects(g, f) == []


def test_ring_of_k4_one_query_per_parent_degree(monkeypatch):
    # the ring is the root block, solved once; each K4 once per degree
    # 0..3 of its cut vertex, where parity refutes the odd degrees without
    # the kernel
    counts = _count_queries(monkeypatch)
    g = ring_of_k4(40)
    f = find_ab_factor(g, 2, 4)
    assert f is not None and factor_defects(g, f) == []
    assert counts["kernel"] + counts["refuted"] == 1 + 4 * 40
    assert counts["kernel"] < 1 + 4 * 40


def _signed_sides_meet(n, eu, ev, allowed, signs):
    """Both sides of sum_v s_v * deg_F(v) = sum_{uv in F} (s_u + s_v),
    recomputed from scratch as sets: whether some signed sum of allowed
    degrees is an even number in [-2Q, 2P]."""
    deg = [0] * n
    pos = neg = 0
    for u, v in zip(eu, ev):
        deg[u] += 1
        deg[v] += 1
        pos += signs[u] + signs[v] == 2
        neg += signs[u] + signs[v] == -2
    left = {0}
    for v in range(n):
        left = {s + signs[v] * x for s in left for x in allowed[v] if 0 <= x <= deg[v]}
    return any(s % 2 == 0 and -2 * neg <= s <= 2 * pos for s in left)


def _random_connected_query(rng):
    n = rng.randint(2, 9)
    eu, ev = [], []
    for v in range(1, n):  # a random spanning tree, then extra edges
        eu.append(rng.randrange(v))
        ev.append(v)
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(range(n), 2)
        eu.append(u)
        ev.append(v)
    a = rng.randint(1, 3)
    b = a + rng.randint(0, 4)
    allowed = [{a, b} for _ in range(n)]
    for v in rng.sample(range(n), rng.randint(0, min(2, n))):
        allowed[v] = set(rng.sample(range(0, 7), rng.randint(1, 2)))
    return n, eu, ev, allowed


def test_signed_sum_refutation_is_sound():
    """A refuted query is UNSAT on every backend, and the returned signing
    separates the two sides of the identity when recomputed by hand."""
    rng = random.Random(2718)
    refuted = unsat = 0
    for trial in range(1000):
        n, eu, ev, allowed = _random_connected_query(rng)
        signs = factors.signed_sum_refutation(n, eu, ev, allowed)
        statuses = {
            impl.solve_degree_constrained(n, eu, ev, allowed, 10**7)[0]
            for impl in kernels.available_backends().values()}
        assert len(statuses) == 1
        unsat += statuses == {kernels.UNSAT}
        if signs is None:
            continue
        refuted += 1
        assert len(signs) == n and set(signs) <= {1, -1}
        assert not _signed_sides_meet(n, eu, ev, allowed, signs), (n, eu, ev, allowed)
        assert statuses == {kernels.UNSAT}, (n, eu, ev, allowed)
    assert refuted > unsat // 2 > 100, (refuted, unsat)


def test_signed_sum_refutes_the_hub_degrees_of_h_block():
    # the paper's counting argument modulo r - 2t: in h_block(t, r) the hub
    # cannot take degree 0 or t + 2; the other hub degrees are feasible.
    # Relabelled, because the BFS signing depends on the numbering.
    rng = random.Random(99)
    for t, r in ((1, 7), (1, 7), (1, 7), (1, 7), (1, 9), (3, 21)):
        h, roles = build_h_block(t, r)
        perm = list(range(h.n))
        rng.shuffle(perm)
        hub = perm[roles.vertices("u")[0] - 1]
        eu = [perm[u - 1] for u, _ in h.edges]
        ev = [perm[v - 1] for _, v in h.edges]
        for d in range(t + 3):
            allowed = [{t, r - t}] * h.n
            allowed[hub] = {d}
            signs = factors.signed_sum_refutation(h.n, eu, ev, allowed)
            assert (signs is not None) == (d in (0, t + 2)), (t, r, d)
            if signs is not None:
                assert not _signed_sides_meet(h.n, eu, ev, allowed, signs)


def test_biconnected_blocks_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5150)
    for trial in range(150):
        n = rng.randint(2, 14)
        pairs = {tuple(sorted(rng.sample(range(1, n + 1), 2)))
                 for _ in range(rng.randint(1, 2 * n))}
        g = Hypergraph.from_edges(n, sorted(pairs))
        blocks, hangs, cuts = _biconnected_blocks(g.n, g.edges)
        assert sorted(eid for blk in blocks for eid in blk) == list(range(g.m))
        # each block hangs from a vertex of a block listed after it, and
        # each root holds the lowest edge of its component
        verts = [{v for eid in blk for v in g.edges[eid]} for blk in blocks]
        for i, hang in enumerate(hangs):
            if hang:
                assert hang in verts[i] and any(hang in vs for vs in verts[i + 1:]), g
        roots = [blk[0] for blk, hang in zip(blocks, hangs) if not hang]
        lowest = [min(i for i, e in enumerate(g.edges) if e[0] in comp)
                  for comp in g.components if len(comp) > 1]
        assert roots == sorted(lowest), g
        ours = sorted(sorted({v for eid in blk for v in g.edges[eid]}) for blk in blocks)
        ref = nx.Graph(g.edges)
        assert ours == sorted(sorted(c) for c in nx.biconnected_components(ref)), g
        assert cuts == set(nx.articulation_points(ref)), g


def test_cf2_via_duality_octahedron():
    h = dual(octahedron())
    c = cf2_via_duality(h)
    assert c is not None
    assert c.palette <= 2
    assert is_conflict_free(h, c) == []


def test_cf2_via_duality_k5():
    assert cf2_via_duality(dual(complete_graph(5))) is None


def test_cf2_via_duality_dual_g17():
    h = dual(build_g_tr(1, 7)[0])
    assert cf2_via_duality(h) is None


def test_cf2_via_duality_validates():
    with pytest.raises(HypergraphError):
        cf2_via_duality(complete_graph(4))  # 3-regular, not 2-regular
    # 2-regular but non-uniform
    bad = Hypergraph.from_edges(3, [(1, 2), (1, 2, 3), (3,)])
    with pytest.raises(HypergraphError):
        cf2_via_duality(bad)


def test_cf2_via_duality_two_parallel_edges():
    # smallest 2-regular 2-uniform case: two parallel edges
    h = Hypergraph.from_edges(2, [(1, 2), (1, 2)])
    c = cf2_via_duality(h)
    assert c is not None and sorted(c.colors) == [1, 2]


def test_mixed_degree_factor_on_random_uniform_graphs():
    rng = random.Random(77)
    for trial in range(5):
        g = random_uniform_hypergraph(rng, 20, 2, 4, 30)
        f = find_ab_factor(g, 1, 4)
        if f is not None:
            assert factor_defects(g, f) == []


def _milp_factor_exists(g: Hypergraph, a: int, b: int) -> bool:
    """Whether g has an {a,b}-factor, as a 0/1 program solved by HiGHS.

    x[e] says edge e is selected and y[v] that vertex v takes degree b:
    sum_{e at v} x[e] - (b - a) * y[v] = a for every vertex v.
    """
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    rows, cols, coeffs = [], [], []
    for e, edge in enumerate(g.edges):
        for v in edge:
            rows.append(v - 1)
            cols.append(e)
            coeffs.append(1)
    for v in range(g.n):
        rows.append(v)
        cols.append(g.m + v)
        coeffs.append(a - b)
    size = g.m + g.n
    matrix = sparse.coo_array((coeffs, (rows, cols)), shape=(g.n, size))
    res = optimize.milp(
        c=[0] * size, integrality=[1] * size, bounds=optimize.Bounds(0, 1),
        constraints=optimize.LinearConstraint(matrix.tocsr(), a, a))
    assert res.status in (0, 2), res.message  # solved, or proved infeasible
    return res.status == 0


def test_factor_agrees_with_milp_on_small_cut_heavy_graphs():
    # an independent check of both verdicts: a None claims a proof
    rng = random.Random(31)
    verdicts = []
    while len(verdicts) < 300:
        g = _cut_heavy(rng)
        if g.n > 12:
            continue
        a = rng.randint(1, 3)
        b = a + rng.randint(0, 3)
        found = find_ab_factor(g, a, b)
        assert (found is not None) == _milp_factor_exists(g, a, b), (g, a, b)
        verdicts.append(found is not None)
    assert 50 <= sum(verdicts) <= 250


def test_g_tr_1_7_has_no_16_factor_by_milp():
    g = build_g_tr(1, 7)[0]
    assert find_ab_factor(g, 1, 6) is None
    assert not _milp_factor_exists(g, 1, 6)
