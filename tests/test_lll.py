import hashlib
import random
import types

import mpmath as mp
import pytest

from cfhyper import (
    Coloring,
    Hypergraph,
    HypergraphError,
    LLLParams,
    color_bound,
    is_conflict_free,
    kernels,
    lll,
    randomized_cf_coloring,
    strong_condition,
)
from cfhyper.kernels import available_backends

from corpus import capped_8uniform, random_uniform_hypergraph


@pytest.fixture(params=sorted(available_backends()))
def backend(request, monkeypatch):
    """Resampling runs on the edge passes of each backend in turn."""
    chosen = available_backends()[request.param]
    for name in ("flatten", "scan_edges", "incidence"):
        monkeypatch.setattr(kernels, name, getattr(chosen, name))
    return request.param


def rescan_coloring(h, params):
    """The resampling loop without a worklist, kept as the reference: each
    round rescans the edges from the first one. Returns the coloring (None
    at the cap) and the number of resampling rounds."""
    r = len(h.edges[0])
    rng = random.Random(params.seed)
    colors = [0] + [rng.randint(1, params.k) for _ in range(h.n)]
    rounds = 0
    while True:
        bad = next((e for e in h.edges
                    if len({colors[v] for v in e}) <= r // 2), None)
        if bad is None:
            return Coloring(tuple(colors[1:])), rounds
        rounds += 1
        if rounds > params.max_rounds:
            return None, rounds - 1
        for v in bad:
            colors[v] = rng.randint(1, params.k)


def high_precision_bound(r, max_degree):
    mp.mp.dps = 50
    v = ((mp.e * r) ** (mp.mpf(2) / r)
         * (mp.e * r / 2)
         * mp.mpf(max_degree) ** (mp.mpf(2) / r))
    return int(mp.ceil(v))


def test_color_bound_frozen_values():
    # frozen from the high-precision evaluation below
    assert color_bound(8, 100) == 75
    assert color_bound(7, 2) == 27


def test_color_bound_matches_high_precision_oracle():
    for r in range(2, 12):
        for d in (2, 3, 10, 100, 1000):
            assert color_bound(r, d) == high_precision_bound(r, d)


def test_color_bound_monotone():
    for r in (3, 5, 8):
        values = [color_bound(r, d) for d in range(2, 300)]
        assert values == sorted(values)


def test_color_bound_domain():
    with pytest.raises(HypergraphError):
        color_bound(1, 5)
    with pytest.raises(HypergraphError):
        color_bound(4, 1)


def test_rainbow_palette_succeeds_immediately():
    h = Hypergraph.from_edges(6, [(1, 2, 3), (4, 5, 6), (1, 4, 6)])
    c = randomized_cf_coloring(h, LLLParams(k=6, seed=3))
    assert c is not None
    assert strong_condition(h, c) == []


def test_single_color_exhausts():
    h = Hypergraph.from_edges(4, [(1, 2, 3, 4)])
    assert randomized_cf_coloring(h, LLLParams(k=1, max_rounds=5)) is None
    # two colors can never beat the threshold of a 4-edge either
    assert randomized_cf_coloring(h, LLLParams(k=2, max_rounds=5)) is None


def test_determinism():
    rng = random.Random(5)
    h = random_uniform_hypergraph(rng, 60, 5, 4, 40)
    p = LLLParams(k=12, seed=99)
    assert randomized_cf_coloring(h, p) == randomized_cf_coloring(h, p)


def test_accepted_colorings_pass_strong_condition():
    rng = random.Random(6)
    for trial in range(10):
        h = random_uniform_hypergraph(rng, 50, 6, 5, 30)
        if h.m == 0:
            continue
        c = randomized_cf_coloring(h, LLLParams(k=10, seed=trial))
        assert c is not None
        assert c.palette <= 10
        assert strong_condition(h, c) == []
        assert is_conflict_free(h, c) == []


def test_nonuniform_rejected():
    h = Hypergraph.from_edges(3, [(1, 2), (1, 2, 3)])
    with pytest.raises(HypergraphError):
        randomized_cf_coloring(h, LLLParams(k=4))


def test_params_validated():
    with pytest.raises(HypergraphError):
        LLLParams(k=0)
    with pytest.raises(HypergraphError):
        LLLParams(k=3, max_rounds=0)


def test_worklist_matches_rescan_reference(backend):
    # capped 8-uniform, max degree 100: k=30 needs a dozen or more rounds,
    # k=75 (the guaranteed palette) at most a few, k=12 starts with many
    # violated edges at once
    h = random_uniform_hypergraph(random.Random(8), 400, 8, 100, 5000)
    assert h.max_degree == 100
    rounds_seen = []
    for k in (30, 75):
        for seed in range(6):
            params = LLLParams(k=k, seed=seed)
            expected, rounds = rescan_coloring(h, params)
            assert expected is not None
            assert randomized_cf_coloring(h, params) == expected
            rounds_seen.append(rounds)
    assert max(rounds_seen) >= 10 and min(rounds_seen) == 0
    params = LLLParams(k=12, seed=1, max_rounds=300)
    assert randomized_cf_coloring(h, params) == rescan_coloring(h, params)[0]


def test_palettes_at_the_c_int_bound(backend):
    # colors are kept in a C int array below 2**31 and in a list from there
    h = random_uniform_hypergraph(random.Random(9), 60, 6, 5, 40)
    for k in (2**31 - 1, 2**40):
        for seed in range(3):
            params = LLLParams(k=k, seed=seed)
            assert randomized_cf_coloring(h, params) == rescan_coloring(h, params)[0]


def test_worklist_cap_boundary(backend):
    h = random_uniform_hypergraph(random.Random(8), 400, 8, 100, 5000)
    expected, rounds = rescan_coloring(h, LLLParams(k=30, seed=2))
    assert rounds >= 10
    # exactly enough rounds succeeds, one fewer hits the cap
    assert randomized_cf_coloring(
        h, LLLParams(k=30, seed=2, max_rounds=rounds)) == expected
    assert randomized_cf_coloring(
        h, LLLParams(k=30, seed=2, max_rounds=rounds - 1)) is None
    assert rescan_coloring(
        h, LLLParams(k=30, seed=2, max_rounds=rounds - 1))[0] is None


# sha256 of repr([(k, seed, colors or None, randint draws), ...]) in the
# order below, as the resampling loop returned them before it checked edges
# through kernels.scan_edges; draws are n plus r per round
GOLDEN_LLL8_DIGEST = "29faafb1bd6409fd34fe182a0189bbd599eb73b79d0e65dde69d4ae6b22bd54e"


def test_lll8_colorings_match_golden_digest(backend, monkeypatch):
    draws = [0]

    class CountingRandom(random.Random):
        def randint(self, a, b):
            draws[0] += 1
            return super().randint(a, b)

    monkeypatch.setattr(lll, "random", types.SimpleNamespace(Random=CountingRandom))
    h = capped_8uniform(random.Random(1000))
    out = []
    # k=30 takes 71-90 rounds, k=75 (the guaranteed palette) at most one,
    # k=12 hits the cap
    for k, seeds, max_rounds in ((30, range(3), 10**6), (75, range(6), 10**6),
                                 (12, range(2), 100)):
        for seed in seeds:
            draws[0] = 0
            c = randomized_cf_coloring(h, LLLParams(k=k, seed=seed, max_rounds=max_rounds))
            out.append((k, seed, None if c is None else c.colors, draws[0]))
    assert [c is None for *_, c, _ in out] == [False] * 9 + [True] * 2
    assert hashlib.sha256(repr(out).encode()).hexdigest() == GOLDEN_LLL8_DIGEST
