import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from cfhyper import (
    Coloring,
    Hypergraph,
    HypergraphError,
    is_conflict_free,
    is_proper,
    strong_condition,
    unique_color_witness,
)
from cfhyper.constructions import complete_graph, odd_cycle

from corpus import fano_plane
from test_model import hypergraphs


def test_witness_basics():
    h = Hypergraph.from_edges(3, [(1, 2, 3)])
    assert unique_color_witness(h, Coloring((1, 2, 2)), 1) == 1
    h4 = Hypergraph.from_edges(4, [(1, 2, 3, 4)])
    assert unique_color_witness(h4, Coloring((1, 1, 2, 2)), 1) is None
    h2 = Hypergraph.from_edges(2, [(1, 2)])
    assert unique_color_witness(h2, Coloring((1, 2)), 1) == 1
    with pytest.raises(IndexError):
        unique_color_witness(h2, Coloring((1, 2)), 2)


def test_witness_is_smallest():
    h = Hypergraph.from_edges(4, [(1, 2, 3, 4)])
    assert unique_color_witness(h, Coloring((2, 1, 2, 3)), 1) == 2


def test_conflict_free_k4():
    k4 = complete_graph(4)
    assert is_conflict_free(k4, Coloring((1, 2, 3, 4))) == []


def test_conflict_free_c5():
    c5 = odd_cycle(5)
    bad = is_conflict_free(c5, Coloring((1, 2, 1, 2, 1)))
    assert bad == [5]  # the wrap-around edge {1,5} repeats color 1


def test_proper():
    assert is_proper(
        Hypergraph.from_edges(2, [(1, 2)]), Coloring((1, 2))) == []
    assert is_proper(
        Hypergraph.from_edges(3, [(1, 2, 3)]), Coloring((1, 1, 1))) == [1]
    # size-1 edges are always monochromatic
    assert is_proper(Hypergraph.from_edges(1, [(1,)]), Coloring((1,))) == [1]
    # a conflict-free 3-coloring of the Fano plane is automatically proper
    fano = fano_plane()
    c = Coloring((1, 2, 3, 3, 2, 2, 1))
    assert is_conflict_free(fano, c) == []
    assert is_proper(fano, c) == []


def test_length_mismatch():
    h = Hypergraph.from_edges(3, [(1, 2, 3)])
    with pytest.raises(HypergraphError):
        is_conflict_free(h, Coloring((1, 2)))


def test_strong_condition():
    h4 = Hypergraph.from_edges(4, [(1, 2, 3, 4)])
    assert strong_condition(h4, Coloring((1, 2, 3, 3))) == []
    assert strong_condition(h4, Coloring((1, 1, 2, 2))) == [1]
    mixed = Hypergraph.from_edges(3, [(1, 2), (1, 2, 3)])
    with pytest.raises(HypergraphError):
        strong_condition(mixed, Coloring((1, 2, 3)))


@given(hypergraphs(), st.integers(0, 10**6))
def test_strong_implies_conflict_free(h, seed):
    # make it uniform by keeping only the most common size
    sizes = [len(e) for e in h.edges]
    if not sizes:
        return
    r = max(set(sizes), key=sizes.count)
    h = Hypergraph(h.n, tuple(e for e in h.edges if len(e) == r))
    rng = random.Random(seed)
    c = Coloring(tuple(rng.randint(1, 4) for _ in range(h.n)))
    if not strong_condition(h, c):
        assert not is_conflict_free(h, c)


@given(hypergraphs(), st.integers(0, 10**6))
def test_palette_permutation_invariance(h, seed):
    rng = random.Random(seed)
    c = Coloring(tuple(rng.randint(1, 4) for _ in range(h.n)))
    perm = list(range(1, 6))
    rng.shuffle(perm)
    pc = Coloring(tuple(perm[x - 1] for x in c.colors))
    assert is_conflict_free(h, c) == is_conflict_free(h, pc)
    assert is_proper(h, c) == is_proper(h, pc)


@given(hypergraphs(max_edge=3), st.integers(0, 10**6))
def test_proper_equals_cf_for_small_uniform(h, seed):
    # 2- and 3-uniform: the two notions coincide
    for r in (2, 3):
        hr = Hypergraph(h.n, tuple(e for e in h.edges if len(e) == r))
        rng = random.Random(seed)
        c = Coloring(tuple(rng.randint(1, 3) for _ in range(hr.n)))
        assert (is_proper(hr, c) == []) == (is_conflict_free(hr, c) == [])


def _counter_reference(h, c):
    """Per edge, the smallest uniquely colored vertex or None, by Counter."""
    out = []
    for edge in h.edges:
        counts = Counter(c.colors[v - 1] for v in edge)
        out.append(next((v for v in edge if counts[c.colors[v - 1]] == 1), None))
    return out


def _check_against_counter(h, c):
    witnesses = _counter_reference(h, c)
    assert [unique_color_witness(h, c, i) for i in range(1, h.m + 1)] == witnesses
    assert is_conflict_free(h, c) == [i for i, w in enumerate(witnesses, 1) if w is None]


@given(hypergraphs(max_n=24, max_m=8, max_edge=24), st.integers(1, 4),
       st.integers(0, 10**6))
def test_counting_matches_counter_reference(h, palette, seed):
    # palette 1 makes every edge of two or more vertices bad
    rng = random.Random(seed)
    _check_against_counter(h, Coloring(tuple(rng.randint(1, palette) for _ in range(h.n))))


@pytest.mark.parametrize("r", [1, 2, 8, 16, 17, 40])
def test_counting_on_both_sides_of_the_size_switch(r):
    h = Hypergraph.from_edges(r, [range(1, r + 1), [r]])
    pairs = Coloring(tuple(v // 2 + 1 for v in range(r)))  # each color twice if r is even
    last = Coloring((1,) * (r - 1) + (2,))  # the one unique color comes last
    for c in (pairs, last, Coloring((1,) * r)):
        _check_against_counter(h, c)
    assert is_conflict_free(h, pairs) == ([1] if r % 2 == 0 else [])
    assert is_conflict_free(h, last) == []
    assert unique_color_witness(h, last, 1) == (1 if r == 2 else r)
