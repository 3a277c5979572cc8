import hashlib

from cfhyper import (
    Hypergraph,
    greedy_cf_coloring,
    is_conflict_free,
    maximal_strongly_independent_set,
    peel_then_solve,
    stats,
)
from cfhyper.constructions import build_g_tr, complete_graph
from cfhyper.greedy import _peel_layers
from cfhyper.model import dual

from corpus import mixed_corpus


def test_msis_single_edge():
    h = Hypergraph.from_edges(6, [(1, 2, 3, 4)])
    s = maximal_strongly_independent_set(h)
    # greedy by id takes vertex 1, plus the isolated vertices 5, 6
    assert s.members == {1, 5, 6}


def test_msis_edgeless():
    h = Hypergraph.from_edges(5, [])
    assert maximal_strongly_independent_set(h).members == {1, 2, 3, 4, 5}


def test_msis_strong_independence_and_maximality():
    for h in mixed_corpus(count=50):
        s = maximal_strongly_independent_set(h)
        for e in h.edges:
            assert len(set(e) & s.members) <= 1
        for v in range(1, h.n + 1):
            if v in s.members:
                continue
            # adding v must break strong independence somewhere
            assert any(
                v in e and len(set(e) & s.members) == 1 for e in h.edges)


def test_peel_drops_degree():
    for h in mixed_corpus(count=50):
        st = stats(h)
        if st.max_degree == 0:
            continue
        s = maximal_strongly_independent_set(h)
        kept_edges = tuple(
            e for e in h.edges if not set(e) & s.members)
        deg = {}
        for e in kept_edges:
            for v in e:
                deg[v] = deg.get(v, 0) + 1
        new_max = max(deg.values(), default=0)
        assert new_max <= max(st.max_degree - 1, 0)


def test_greedy_and_peel_match_golden_digest():
    # recorded from the earlier code, in which greedy_cf_coloring ran a peel
    # loop of its own and _peel_layers rescanned degrees before each layer
    digest = hashlib.sha256()
    for h in mixed_corpus(1000):
        digest.update(repr(greedy_cf_coloring(h).colors).encode())
        for d in range(1, 5):
            layers, kept, alive = _peel_layers(h, d)
            live = [i for i, a in enumerate(alive) if a and i]
            digest.update(repr((layers, kept, live)).encode())
    assert digest.hexdigest() == (
        "003e3b4cc95acdd03fb3e6e0074f3af0b7e539cafa50b7ab283caa50d70c7788")


def test_greedy_k4():
    k4 = complete_graph(4)
    c = greedy_cf_coloring(k4)
    assert c.palette <= 4
    assert is_conflict_free(k4, c) == []


def test_greedy_single_edge_two_colors():
    h = Hypergraph.from_edges(4, [(1, 2, 3, 4)])
    c = greedy_cf_coloring(h)
    assert c.palette == 2
    assert is_conflict_free(h, c) == []


def test_greedy_dual_g17():
    d = dual(build_g_tr(1, 7)[0])
    c = greedy_cf_coloring(d)
    assert c.palette <= 3
    assert is_conflict_free(d, c) == []


def test_greedy_bound_on_corpus():
    for h in mixed_corpus(count=200):
        c = greedy_cf_coloring(h)
        assert c.palette <= stats(h).max_degree + 1
        assert is_conflict_free(h, c) == []


def test_peel_then_solve_zero_peels():
    # max degree 1 <= target 2, so no peeling happens and the base solver
    # (greedy, using 2 <= 2 colors here) sees the instance unchanged
    h = Hypergraph.from_edges(4, [(1, 2, 3, 4)])
    base_calls = []

    def base(rest):
        base_calls.append(rest)
        return greedy_cf_coloring(rest)

    c = peel_then_solve(h, 2, base)
    assert base_calls[0] == h
    assert c == greedy_cf_coloring(h)
    assert is_conflict_free(h, c) == []


def test_peel_then_solve_rejects_bad_base():
    import pytest

    h = Hypergraph.from_edges(8, [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6)])

    def wasteful(rest):
        from cfhyper import Coloring
        return Coloring(tuple(range(1, rest.n + 1)))

    with pytest.raises(Exception, match="base solver"):
        peel_then_solve(h, 1, wasteful)


def test_peel_then_solve_four_uniform():
    # peel 4-uniform instances down to degree 3, then 3-color the remainder
    from cfhyper.four_uniform import _map_components, three_color_4uniform

    def base(rest):
        return _map_components(rest, three_color_4uniform)

    checked = 0
    for h in mixed_corpus(count=300):
        st = stats(h)
        if st.uniform_r != 4 or st.max_degree < 4:
            continue
        c = peel_then_solve(h, 3, base)
        assert is_conflict_free(h, c) == []
        assert c.palette <= st.max_degree
        checked += 1
    assert checked >= 3
