import pytest
from hypothesis import example, given, strategies as st

from cfhyper import (
    Hypergraph,
    HypergraphError,
    HypergraphStats,
    dual,
    remove_vertices,
    stats,
)
from cfhyper.constructions import build_g_tr, complete_graph
from cfhyper.graph_io import load_hypergraph, save_hypergraph
from cfhyper.kernels import available_backends

from corpus import mixed_corpus


@st.composite
def hypergraphs(draw, max_n=8, max_m=6, max_edge=5, min_degree=0):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    edges = [
        tuple(sorted(draw(st.sets(
            st.integers(1, n), min_size=1, max_size=min(max_edge, n)))))
        for _ in range(m)
    ]
    if min_degree > 0:
        covered = {v for e in edges for v in e}
        for v in range(1, n + 1):
            if v not in covered:
                edges.append((v,))
    return Hypergraph.from_edges(n, edges)


@st.composite
def multi_hypergraphs(draw):
    """n may be 0 and m may be 0; edges repeat (picked from a small pool),
    may be singletons, and may leave vertices isolated."""
    n = draw(st.integers(0, 7))
    if n == 0:
        return Hypergraph(0, ())
    pool = draw(st.lists(
        st.sets(st.integers(1, n), min_size=1, max_size=min(4, n)),
        min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=8))
    return Hypergraph.from_edges(n, [pool[i] for i in picks])


def reference_stats(h):
    """Every statistic by direct set computation."""
    edges = [set(e) for e in h.edges]
    degrees = [sum(v in e for e in edges) for v in range(1, h.n + 1)]
    sizes = {len(e) for e in edges}
    reach = {1} if h.n else set()
    grown = True
    while grown:
        grown = False
        for e in edges:
            if reach & e and not e <= reach:
                reach |= e
                grown = True
    return HypergraphStats(
        n=h.n,
        m=h.m,
        max_degree=max(degrees, default=0),
        max_edge_degree=max(
            (sum(1 for j, f in enumerate(edges) if j != i and e & f)
             for i, e in enumerate(edges)),
            default=0),
        uniform_r=sizes.pop() if len(sizes) == 1 else None,
        regular_a=degrees[0] if len(set(degrees)) == 1 else None,
        connected=len(reach) == h.n or h.n <= 1,
    )


def reference_rows(h):
    """Per vertex 0..n, its 0-based edges, ascending."""
    return [[e for e, edge in enumerate(h.edges) if v in edge] for v in range(h.n + 1)]


def incidence_rows(h):
    """h.incidence as rows, after checking that every available backend's
    incidence of h's edges gives the same."""
    vptr, vedges = h.incidence
    rows = [list(vedges[a:b]) for a, b in zip(vptr, vptr[1:])]
    for backend in available_backends().values():
        vptr, vedges = backend.incidence(h.n + 1, backend.flatten(h.edges))
        assert [list(vedges[a:b]) for a, b in zip(vptr, vptr[1:])] == rows, backend
    return rows


def reference_labels(h):
    """Per vertex 0..n, the index of its component, numbered by smallest
    vertex, each grown from it by direct set computation."""
    edges = [set(e) for e in h.edges]
    labels = [-1] * (h.n + 1)
    count = 0
    for v in range(h.n + 1):
        if labels[v] < 0:
            reach, grown = {v}, True
            while grown:
                grown = False
                for e in edges:
                    if reach & e and not e <= reach:
                        reach |= e
                        grown = True
            for w in reach:
                labels[w] = count
            count += 1
    return labels


def twin_results(h):
    """(edge_degree, components) of h's edges on every available backend,
    after checking that they all agree."""
    results = set()
    for backend in available_backends().values():
        flat = backend.flatten(h.edges)
        results.add((backend.edge_degree(h.n + 1, flat, backend.incidence(h.n + 1, flat)),
                     tuple(backend.components(h.n + 1, flat))))
    assert len(results) == 1, (h, results)
    degree, labels = results.pop()
    return degree, list(labels)


STAT_NAMES = ("max_degree", "max_edge_degree", "uniform_r", "regular_a",
              "connected")


@given(multi_hypergraphs())
@example(Hypergraph(0, ()))
@example(Hypergraph(3, ()))
@example(Hypergraph(1, ((1,),)))
@example(Hypergraph(4, ((1,), (2, 3), (2, 3), (2, 3))))
@example(Hypergraph(5, ((1, 2), (3, 4))))
def test_lazy_stats_match_reference(h):
    expected = reference_stats(h)
    assert stats(h) == expected
    # each statistic alone, first read on a fresh instance
    for name in STAT_NAMES:
        assert getattr(Hypergraph(h.n, h.edges), name) == getattr(expected, name)
    # each backend's twins
    assert twin_results(h) == (expected.max_edge_degree, reference_labels(h))
    # the cache is invisible to equality and hashing
    assert h == Hypergraph(h.n, h.edges)
    assert hash(h) == hash(Hypergraph(h.n, h.edges))
    # the same from a loaded file, whose flat layout the parser may give
    parsed = load_hypergraph(save_hypergraph(h))
    assert stats(parsed) == expected
    assert parsed.vertex_degrees() == h.vertex_degrees()
    assert incidence_rows(parsed) == incidence_rows(h) == reference_rows(h)


def test_components_match_networkx():
    nx = pytest.importorskip("networkx")
    cases = list(mixed_corpus(count=300)) + [
        Hypergraph(0, ()),
        Hypergraph(4, ()),  # isolated vertices only
        Hypergraph(6, ((2, 5), (2, 5), (3,), (1, 6))),  # parallel edges
        Hypergraph.from_edges(7, [(4, 7), (1, 4, 6), (1, 4, 6), (2,)]),
    ]
    for h in cases:
        primal = nx.Graph()
        primal.add_nodes_from(range(1, h.n + 1))
        primal.add_edges_from((e[0], v) for e in h.edges for v in e[1:])
        ours = h.components
        assert all(list(c) == sorted(c) for c in ours), h
        assert [c[0] for c in ours] == sorted(c[0] for c in ours), h
        ref = sorted(tuple(sorted(c)) for c in nx.connected_components(primal))
        assert list(ours) == ref, h
        assert Hypergraph(h.n, h.edges).connected == (len(ref) <= 1)


TWIN_CASES = [
    Hypergraph(0, ()),
    Hypergraph(4, ()),  # isolated vertices only
    Hypergraph(1, ((1,),)),
    Hypergraph(6, ((2, 5), (2, 5), (3,), (1, 6))),  # parallel and size-1 edges
    Hypergraph.from_edges(7, [(4, 7), (1, 4, 6), (1, 4, 6), (2,)]),
    # sparse: a long cycle and a matching
    Hypergraph.from_edges(1100, [(v, v % 1100 + 1) for v in range(1, 1101)]),
    Hypergraph(1200, tuple((2 * i - 1, 2 * i) for i in range(1, 601))),
]


def test_structural_twins_match_reference():
    for h in [*mixed_corpus(count=300), *TWIN_CASES]:
        assert twin_results(h) == (reference_stats(h).max_edge_degree, reference_labels(h)), h


def test_components_of_built_edges_skip_the_flat_layout():
    h = Hypergraph.from_edges(6, [(1, 2), (5, 6), (2, 5)])
    assert h.components == ((1, 2, 5, 6), (3,), (4,))
    assert "flat" not in h.__dict__


def test_invariants_rejected():
    with pytest.raises(HypergraphError):
        Hypergraph(2, ((1, 1),))
    with pytest.raises(HypergraphError):
        Hypergraph(2, ((1, 3),))
    with pytest.raises(HypergraphError):
        Hypergraph(2, ((),))
    with pytest.raises(HypergraphError):
        Hypergraph(2, ((2, 1),))  # unsorted
    # from_edges sorts on ingest
    assert Hypergraph.from_edges(3, [(3, 1, 2)]).edges == ((1, 2, 3),)


@pytest.mark.parametrize("edges, message", [
    (((1, 2), ()), "edge 2 is empty"),
    (((0, 1),), "edge 1 contains vertex 0, outside 1..3"),
    (((2, 4),), "edge 1 contains vertex 4, outside 1..3"),
    (((5, 5),), "edge 1 contains vertex 5, outside 1..3"),  # range before repeat
    (((1, 2, 2),), "edge 1 repeats vertex 2"),
    (((1, 3, 2),), "edge 1 is not sorted"),
    (((3, 1, 4),), "edge 1 is not sorted"),  # order before range
    (((1, 2), (2, 3), (3, 1)), "edge 3 is not sorted"),
])
def test_invariant_messages(edges, message):
    with pytest.raises(HypergraphError) as info:
        Hypergraph(3, edges)
    assert str(info.value) == message


def test_stats_single_edge():
    h = Hypergraph.from_edges(4, [(1, 2, 3, 4)])
    st_ = stats(h)
    assert (st_.max_degree, st_.max_edge_degree, st_.uniform_r) == (1, 0, 4)
    assert st_.connected


def test_stats_g17():
    g, _ = build_g_tr(1, 7)
    st_ = stats(g)
    assert (st_.n, st_.m, st_.max_degree, st_.uniform_r, st_.regular_a) == (
        54, 189, 7, 2, 7)
    assert st_.connected
    # degree-sum check: 54 * 7 == 2 * 189
    assert sum(g.vertex_degrees()) == 2 * g.m


def test_stats_disconnected_and_parallel():
    h = Hypergraph.from_edges(4, [(1, 2), (1, 2), (3, 4)])
    st_ = stats(h)
    assert not st_.connected
    assert st_.max_degree == 2  # parallel edges count with multiplicity
    assert st_.max_edge_degree == 1


def test_dual_triangle_self():
    tri = complete_graph(3)
    d = dual(tri)
    st_ = stats(d)
    assert (st_.n, st_.m, st_.uniform_r, st_.regular_a) == (3, 3, 2, 2)


def test_dual_g17():
    g, _ = build_g_tr(1, 7)
    d = dual(g)
    st_ = stats(d)
    assert (st_.n, st_.m, st_.max_degree, st_.uniform_r, st_.regular_a) == (
        189, 54, 2, 7, 2)


def test_dual_rejects_isolated():
    with pytest.raises(HypergraphError):
        dual(Hypergraph.from_edges(3, [(1, 2)]))


@given(hypergraphs(min_degree=1))
def test_dual_involution(h):
    assert dual(dual(h)) == h


@given(hypergraphs(min_degree=1))
def test_dual_swaps_sequences(h):
    d = dual(h)
    assert sorted(len(e) for e in d.edges) == sorted(h.vertex_degrees())
    assert sorted(d.vertex_degrees()) == sorted(len(e) for e in h.edges)
    parsed = load_hypergraph(save_hypergraph(h))
    assert dual(parsed) == d
    assert parsed.vertex_degrees() == h.vertex_degrees()
    assert incidence_rows(parsed) == incidence_rows(h) == reference_rows(h)
    assert incidence_rows(dual(parsed)) == reference_rows(d)


@given(hypergraphs())
def test_degree_sum_equals_size_sum(h):
    assert sum(h.vertex_degrees()) == sum(len(e) for e in h.edges)


def test_edge_degree_bound_on_corpus():
    for h in mixed_corpus(count=100):
        st_ = stats(h)
        r = st_.uniform_r
        assert st_.max_edge_degree <= r * max(st_.max_degree - 1, 0)


def test_remove_vertices_empties():
    h = Hypergraph.from_edges(3, [(1, 2, 3)])
    shrunk, relabel = remove_vertices(h, {1, 2, 3})
    assert shrunk.n == 0 and shrunk.m == 0 and relabel == {}


def test_remove_vertices_relabels():
    h = Hypergraph.from_edges(5, [(1, 2, 3), (3, 4, 5), (2, 4)])
    shrunk, relabel = remove_vertices(h, {2})
    assert relabel == {1: 1, 3: 2, 4: 3, 5: 4}
    assert shrunk.edges == ((1, 2), (2, 3, 4), (3,))


@given(hypergraphs(), st.sets(st.integers(1, 8)))
def test_remove_vertices_shrinks_sizes(h, removed):
    removed = {v for v in removed if v <= h.n}
    shrunk, _ = remove_vertices(h, removed)
    survivors = [
        len(e) - len(set(e) & removed)
        for e in h.edges
        if set(e) - removed
    ]
    assert [len(e) for e in shrunk.edges] == survivors
