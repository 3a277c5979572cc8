import hashlib
import random

import pytest

from cfhyper import (
    Hypergraph,
    HypergraphError,
    Separator,
    characterize_4uniform,
    chi_cf_exact,
    color_4uniform,
    dual,
    edge_distance,
    elimination_ordering,
    is_conflict_free,
    remove_vertices,
    safe_separator,
    stats,
    three_color_4uniform,
)
from cfhyper import kernels
from cfhyper.constructions import complete_graph

from corpus import (
    connected_4uniform_corpus,
    octahedron,
    random_uniform_hypergraph,
)


def chain(k):
    """k 4-edges overlapping consecutively in one vertex."""
    edges = []
    start = 1
    for _ in range(k):
        edges.append(tuple(range(start, start + 4)))
        start += 3
    return Hypergraph.from_edges(start, edges)


def test_edge_distance_degenerate():
    h = chain(3)
    p = edge_distance(h, 2, 2)
    assert p.length == 1 and p.edges == (2,) and p.tail_size is None


def test_edge_distance_intersecting_pair():
    h = Hypergraph.from_edges(6, [(1, 2, 3, 4), (3, 4, 5, 6)])
    p = edge_distance(h, 1, 2)
    assert p.length == 2
    assert p.tail_size == 2  # |{3,4}|


def test_edge_distance_chain():
    h = chain(5)
    p = edge_distance(h, 1, 5)
    assert p.length == 5
    assert p.edges == (1, 2, 3, 4, 5)
    assert edge_distance(h, 5, 1).edges == (5, 4, 3, 2, 1)


def test_edge_distance_breaks_ties_lexicographically():
    # edges 2 and 3 both join edge 1 to edge 4
    h = Hypergraph.from_edges(
        10, [(1, 2, 3, 4), (4, 5, 6, 7), (1, 5, 8, 9), (6, 8, 9, 10)])
    assert edge_distance(h, 1, 4).edges == (1, 2, 4)
    assert edge_distance(h, 4, 1).edges == (4, 2, 1)


def test_edge_distance_unreachable():
    h = Hypergraph.from_edges(8, [(1, 2, 3, 4), (5, 6, 7, 8)])
    assert edge_distance(h, 1, 2) is None


def test_separator_single_edge():
    h = Hypergraph.from_edges(4, [(1, 2, 3, 4)])
    sep = safe_separator(h)
    assert sep.removed == frozenset({1, 2, 3})
    assert sep.kept == 4
    assert sep.host_edge == 1


def test_separator_nonuniform_rejected():
    # two big edges plus two pendant 2-edges: every valid separator choice
    # would disconnect, which is exactly why uniformity is required
    r = 4
    verts = list(range(1, r + 2))  # v1..v5
    edges = [tuple(verts[:r]), tuple(verts[1:r + 1]), (6, verts[0]), (7, verts[r])]
    h = Hypergraph.from_edges(7, edges)
    with pytest.raises(HypergraphError, match="uniform"):
        safe_separator(h)


def test_separator_disconnected_rejected():
    h = Hypergraph.from_edges(8, [(1, 2, 3, 4), (5, 6, 7, 8)])
    with pytest.raises(HypergraphError, match="connected"):
        safe_separator(h)


def test_separator_properties_on_corpus():
    for h in connected_4uniform_corpus(count=60):
        sep = safe_separator(h)
        edge = set(h.edge(sep.host_edge))
        assert len(sep.removed) == 3
        assert sep.removed < edge
        assert sep.kept in edge and sep.kept not in sep.removed
        shrunk, _ = remove_vertices(h, sep.removed)
        assert stats(shrunk).connected


def test_separator_walks_past_a_disconnecting_candidate(monkeypatch):
    # on this instance the first single-source candidate disconnects, so the
    # verified walk has to go on down the candidate list
    import cfhyper.four_uniform as fu

    h = connected_4uniform_corpus(count=500)[188]
    checked = []
    distances = fu._edge_distances

    def recording_distances(edges, rows, source, avoid=()):
        if avoid:  # a candidate's connectivity check
            checked.append(avoid)
        return distances(edges, rows, source, avoid)

    monkeypatch.setattr(fu, "_edge_distances", recording_distances)
    sep = safe_separator(h)
    assert len(checked) >= 2
    assert not remove_vertices(h, checked[0])[0].connected
    assert checked[-1] == sep.removed
    assert len(sep.removed) == 3
    assert sep.removed < set(h.edge(sep.host_edge))
    assert sep.kept in h.edge(sep.host_edge)
    assert remove_vertices(h, sep.removed)[0].connected


def test_three_coloring_builds_no_hypergraph(monkeypatch):
    # the separator's candidates and the ordering both search h's own
    # incidence rows and edges, so no shrunk copy is built
    corpus = connected_4uniform_corpus(count=500)
    built = []
    post_init = Hypergraph.__post_init__

    def counting_post_init(h):
        built.append(h.n)
        post_init(h)

    monkeypatch.setattr(Hypergraph, "__post_init__", counting_post_init)
    for h in corpus:
        three_color_4uniform(h)
    assert built == []


def test_elimination_ordering_single_edge():
    h = Hypergraph.from_edges(4, [(1, 2, 3, 4)])
    sep = safe_separator(h)
    order = elimination_ordering(h, sep).order
    assert order == (1, 2, 3, 4)


@pytest.mark.parametrize("sep, fault", [
    (Separator(0, frozenset({1, 2, 3}), 4), "host edge 0 is outside 1..2"),
    (Separator(3, frozenset({4, 5, 6}), 7), "host edge 3 is outside 1..2"),
    (Separator(2, frozenset({1, 2, 3}), 9), "keeps vertex 9, not in host edge 2"),
    (Separator(1, frozenset({1, 2, 3}), -3), "keeps vertex -3, not in host edge 1"),
    (Separator(1, frozenset({-1, 2, 3}), 4), r"removes \[-1, 2, 3\], not host edge 1 less 4"),
    (Separator(1, frozenset({1, 2}), 4), r"removes \[1, 2\], not host edge 1 less 4"),
    (Separator(1, frozenset({1, 2, 3, 4}), 4), r"removes \[1, 2, 3, 4\], not host edge 1 less 4"),
], ids=["edge-0", "edge-past-m", "kept-outside", "kept-negative", "removed-negative",
        "removed-too-few", "kept-removed"])
def test_elimination_ordering_rejects_a_separator_of_another_hypergraph(sep, fault):
    h = Hypergraph.from_edges(7, [(1, 2, 3, 4), (4, 5, 6, 7)])
    with pytest.raises(HypergraphError, match=fault):
        elimination_ordering(h, sep)


def test_elimination_ordering_invariant():
    for h in connected_4uniform_corpus(count=40):
        sep = safe_separator(h)
        order = elimination_ordering(h, sep).order
        assert len(order) == h.n
        assert sorted(order[:3]) == sorted(sep.removed)
        assert order[-1] == sep.kept
        pos = {v: i for i, v in enumerate(order)}
        shrunk_edges = [
            [v for v in e if v not in sep.removed] for e in h.edges]
        for i in range(3, h.n - 1):
            v = order[i]
            assert any(
                v in se and any(pos[w] > i for w in se if w != v)
                for se in shrunk_edges)


def test_three_color_single_edge():
    h = Hypergraph.from_edges(4, [(1, 2, 3, 4)])
    c = three_color_4uniform(h)
    assert c.colors[:3] == (1, 2, 3)
    assert c.palette <= 3
    assert is_conflict_free(h, c) == []


def test_three_color_corpus():
    for h in connected_4uniform_corpus(count=120):
        c = three_color_4uniform(h)
        assert c.palette <= 3
        assert is_conflict_free(h, c) == []


def test_three_color_rejects_high_degree():
    import random
    rng = random.Random(1)
    h = random_uniform_hypergraph(rng, 12, 4, 5, 14)
    assert stats(h).max_degree > 3
    with pytest.raises(HypergraphError):
        three_color_4uniform(h)


def test_three_color_optimal_on_odd_2regular():
    # 2-regular with odd edge count: 3 colors is exactly optimal
    dk5 = dual(complete_graph(5))
    c = three_color_4uniform(dk5)
    assert c.palette <= 3
    assert is_conflict_free(dk5, c) == []
    assert chi_cf_exact(dk5).chi_cf == 3


def test_color_4uniform_multi_degree():
    import random
    rng = random.Random(2)
    for cap in (1, 2, 3, 4, 5):
        for trial in range(4):
            h = random_uniform_hypergraph(rng, 24, 4, cap, 20)
            if h.m == 0:
                continue
            c = color_4uniform(h)
            st = stats(h)
            assert is_conflict_free(h, c) == []
            assert c.palette <= max(st.max_degree, 3)


def test_color_4uniform_matches_golden_digest():
    # the palettes were recorded before max degree <= 2 went to the exact
    # oracle, the colorings after
    rng = random.Random(1414)
    digest, palettes = hashlib.sha256(), hashlib.sha256()
    for _ in range(200):
        cap = rng.randint(1, 5)
        n = rng.randint(4, 60)
        h = random_uniform_hypergraph(rng, n, 4, cap, rng.randint(1, n * cap // 4 + 1))
        coloring = color_4uniform(h)
        digest.update(repr(coloring.colors).encode())
        palettes.update(repr(coloring.palette).encode())
    # the palettes alone, which no change of route may move
    assert palettes.hexdigest() == (
        "eb2ccf1f11aba316559f02edd1ee28df546707e5b37854342301d6e530dcb02b")
    assert digest.hexdigest() == (
        "dfd4cfad9f21df29594f2776a77ff3c579b5420ca996ac3028a8c509ca8ac2e1")


def test_separators_orderings_and_edge_paths_match_golden_digest():
    # a different separator or edge path can still give the same coloring,
    # so the colouring digest above does not pin these
    corpus = connected_4uniform_corpus(count=500)
    structure, paths = hashlib.sha256(), hashlib.sha256()
    for h in corpus:
        sep = safe_separator(h)
        structure.update(repr((sep.host_edge, sorted(sep.removed), sep.kept)).encode())
        structure.update(repr(elimination_ordering(h, sep).order).encode())
    # pairs of corpus instances side by side, so about 2 in 5 pairs of
    # edges are unreachable from each other
    rng = random.Random(2525)
    for h, g in zip(corpus[::2], corpus[1::2]):
        both = Hypergraph(h.n + g.n, h.edges + tuple(tuple(v + h.n for v in e) for e in g.edges))
        for _ in range(4):
            p = edge_distance(both, rng.randint(1, both.m), rng.randint(1, both.m))
            paths.update(repr(None if p is None else (p.edges, p.tail_size)).encode())
    assert structure.hexdigest() == (
        "3e169007b33b51e33b63f399971b362cc5f93d0b523d47e21ab90054a9c8ed6e")
    assert paths.hexdigest() == (
        "fc493f9ae91d3fa49082c3039b84b413afec148d2db73e1bea0baea27b92e500")


def test_color_4uniform_disjoint_edges():
    # two disjoint 4-edges: degree 1, two colors, per-component handling
    h = Hypergraph.from_edges(8, [(1, 2, 3, 4), (5, 6, 7, 8)])
    c = color_4uniform(h)
    assert c.palette == 2
    assert is_conflict_free(h, c) == []
    assert chi_cf_exact(h).chi_cf == 2


def test_color_4uniform_rejects_nonuniform():
    h = Hypergraph.from_edges(5, [(1, 2), (1, 2, 3, 4)])
    with pytest.raises(HypergraphError):
        color_4uniform(h)


def test_characterize_single_edge():
    h = Hypergraph.from_edges(4, [(1, 2, 3, 4)])
    res = characterize_4uniform(h)
    assert res.chi_cf == 2
    assert is_conflict_free(h, res.coloring) == []


def test_characterize_regular_even_vs_odd():
    docta = dual(octahedron())  # m = 6 even
    res = characterize_4uniform(docta)
    assert res.chi_cf == 2
    assert is_conflict_free(docta, res.coloring) == []

    dk5 = dual(complete_graph(5))  # m = 5 odd
    res = characterize_4uniform(dk5)
    assert res.chi_cf == 3
    assert is_conflict_free(dk5, res.coloring) == []


def test_characterize_nonregular_two_colors():
    # triangle of 4-edges with pendant vertices: connected, degree <= 2,
    # not regular, so 2 colors suffice
    h = Hypergraph.from_edges(9, [
        (1, 4, 5, 2), (2, 6, 7, 3), (3, 8, 9, 1)])
    st = stats(h)
    assert st.max_degree == 2 and st.regular_a is None
    res = characterize_4uniform(h)
    assert res.chi_cf == 2
    assert is_conflict_free(h, res.coloring) == []


def test_characterize_raises_when_the_guarantee_fails(monkeypatch):
    # a non-regular input of max degree 2 always 2-colors; an oracle that
    # says otherwise is a bug, not an answer
    import cfhyper.four_uniform as fu
    from cfhyper import ChiCfResult, Coloring

    h = Hypergraph.from_edges(9, [(1, 4, 5, 2), (2, 6, 7, 3), (3, 8, 9, 1)])
    monkeypatch.setattr(fu, "chi_cf_exact", lambda h: ChiCfResult(
        3, Coloring(tuple([1, 2, 3] * 3)), 0))
    with pytest.raises(fu.AnomalyError):
        characterize_4uniform(h)
    assert characterize_4uniform(dual(complete_graph(5))).chi_cf == 3


def test_characterize_agrees_with_oracle():
    import random

    from corpus import largest_component

    rng = random.Random(31)
    checked = 0
    while checked < 40:
        h = largest_component(
            random_uniform_hypergraph(rng, 16, 4, 2, rng.randint(2, 8)))
        st = stats(h)
        if h.m == 0 or st.n > 16 or st.max_degree > 2:
            continue
        res = characterize_4uniform(h)
        # the first palette the kernel colors, searching the whole
        edges0 = [tuple(v - 1 for v in e) for e in h.edges]
        plain = next(k for k in range(1, 4) if kernels.color_search(
            h.n, edges0, k, kernels.CONFLICT_FREE)[0] is not None)
        assert res.chi_cf == plain
        assert is_conflict_free(h, res.coloring) == []
        checked += 1


def test_characterize_parallel_edges():
    # two parallel 4-edges: 2-regular with even edge count, so 2 colors
    h = Hypergraph.from_edges(4, [(1, 2, 3, 4), (1, 2, 3, 4)])
    res = characterize_4uniform(h)
    assert res.chi_cf == 2
    assert is_conflict_free(h, res.coloring) == []


def test_characterize_validates():
    with pytest.raises(HypergraphError):
        characterize_4uniform(dual(complete_graph(4)))  # 3-regular dual: degree 2 but 3-uniform
    big = Hypergraph.from_edges(12, [(1, 2, 3, 4)] * 3)
    with pytest.raises(HypergraphError):
        characterize_4uniform(big)  # max degree 3