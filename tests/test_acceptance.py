"""Acceptance criteria, one test per criterion.

Each test prints a single `ACCEPTANCE <n>: PASS/FAIL` line (run pytest with
-s to see them live). Stated time budgets are asserted with
time.perf_counter.
"""

import random
import time
from contextlib import contextmanager


from cfhyper import (
    Hypergraph,
    cf2_via_duality,
    characterize_4uniform,
    chi_cf_exact,
    chi_proper_exact,
    color_bound,
    dual,
    factor_defects,
    find_ab_factor,
    greedy_cf_coloring,
    is_conflict_free,
    LLLParams,
    parity_precheck,
    randomized_cf_coloring,
    remove_vertices,
    safe_separator,
    stats,
    strong_condition,
    three_color_4uniform,
)
from cfhyper.cli import main as cli_main
from cfhyper.constructions import (
    build_g_tr,
    complete_graph,
    gap_nested,
    k4e_gadget,
    odd_cycle,
)

from corpus import (
    capped_8uniform,
    connected_4uniform_corpus,
    mixed_corpus,
    octahedron,
    small_corpus,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS  {description}")


def test_criterion_1_no_16_factor(tmp_path, capsys):
    with criterion(1, "G(1,7) is 7-regular 54/189 and has no {1,6}-factor"):
        path = tmp_path / "g.hg"
        assert cli_main(["gen", "--construction", "g_tr", "--t", "1",
                         "--r", "7", "-o", str(path)]) == 0
        g, _ = build_g_tr(1, 7)
        st = stats(g)
        assert (st.n, st.m, st.regular_a) == (54, 189, 7)

        start = time.perf_counter()
        code = cli_main(["factor", "--a", "1", "--b", "6", str(path)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 1 and out.strip() == "NONE"
        assert elapsed <= 120.0, f"refutation took {elapsed:.1f}s"


def test_criterion_2_parity_and_octahedron():
    with criterion(2, "K5 has no {1,3}-factor (parity); octahedron has one"):
        k5 = complete_graph(5)
        best = min(
            _timed(lambda: parity_precheck(k5, 1, 3))[0] for _ in range(5))
        cert = parity_precheck(k5, 1, 3)
        assert cert is not None and len(cert.component) == 5
        assert best < 0.001, f"parity certificate took {best * 1000:.2f} ms"

        octa = octahedron()
        f = find_ab_factor(octa, 1, 3)
        assert f is not None
        assert factor_defects(octa, f) == []


def test_criterion_3_f72_equals_3():
    with criterion(3, "dual(G(1,7)) needs exactly 3 colors"):
        h = dual(build_g_tr(1, 7)[0])
        start = time.perf_counter()
        assert cf2_via_duality(h) is None  # no 2-coloring, certified
        c = greedy_cf_coloring(h)
        elapsed = time.perf_counter() - start
        assert c.palette <= 3
        assert is_conflict_free(h, c) == []
        assert elapsed <= 120.0, f"both halves took {elapsed:.1f}s"


def test_criterion_4_exact_characterization_anchors():
    with criterion(4, "chi_cf(dual K5) = 3 and chi_cf(dual octahedron) = 2"):
        dk5 = dual(complete_graph(5))
        docta = dual(octahedron())
        start = time.perf_counter()
        assert chi_cf_exact(dk5).chi_cf == 3
        assert chi_cf_exact(docta).chi_cf == 2
        elapsed = time.perf_counter() - start
        assert elapsed <= 10.0
        assert characterize_4uniform(dk5).chi_cf == 3
        assert characterize_4uniform(docta).chi_cf == 2


def test_criterion_5_greedy_property_suite():
    with criterion(5, "greedy conflict-free within max degree + 1 on 1000 instances"):
        instances = mixed_corpus(count=1000)
        assert len(instances) >= 1000
        for h in instances:
            c = greedy_cf_coloring(h)
            assert c.palette <= stats(h).max_degree + 1
            assert is_conflict_free(h, c) == []


def test_criterion_6_three_coloring_property_suite():
    with criterion(6, "3-coloring + separator validity on 500 connected "
                      "4-uniform instances within 60s"):
        start = time.perf_counter()
        instances = connected_4uniform_corpus(count=500)
        assert len(instances) >= 500
        for h in instances:
            sep = safe_separator(h)
            assert len(sep.removed) == 3
            assert sep.removed < set(h.edge(sep.host_edge))
            shrunk, _ = remove_vertices(h, sep.removed)
            assert stats(shrunk).connected
            c = three_color_4uniform(h)
            assert c.palette <= 3
            assert is_conflict_free(h, c) == []
        elapsed = time.perf_counter() - start
        assert elapsed <= 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_7_oracle_anchors():
    with criterion(7, "exact conflict-free values on the five anchors"):
        cases = [
            (odd_cycle(5), 3),
            (complete_graph(4), 4),
            (Hypergraph.from_edges(4, [(1, 2, 3, 4)]), 2),
            (k4e_gadget(4), 4),
            (gap_nested(3), 4),
        ]
        for h, expected in cases:
            elapsed, res = _timed(lambda h=h: chi_cf_exact(h))
            assert res.chi_cf == expected
            assert elapsed <= 10.0
        elapsed, res = _timed(lambda: chi_proper_exact(gap_nested(3)))
        assert res.chi_cf == 2
        assert elapsed <= 10.0


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_criterion_8_randomized_coloring_suite():
    with criterion(8, "randomized coloring at k=75 succeeds on >= 49/50 runs"):
        assert color_bound(8, 100) == 75
        successes = 0
        runs = 0
        for instance_seed in range(5):
            h = capped_8uniform(random.Random(1000 + instance_seed))
            assert h.max_degree <= 100  # keeps 75 at/above the guarantee
            assert h.max_degree >= 80
            for seed in range(10):
                runs += 1
                c = randomized_cf_coloring(h, LLLParams(k=75, seed=seed))
                if c is not None:
                    assert strong_condition(h, c) == []
                    assert c.palette <= 75
                    successes += 1
        assert runs == 50
        assert successes >= 49, f"only {successes}/50 runs succeeded"


def test_criterion_9_oracle_cross_validation():
    with criterion(9, "exact oracle vs greedy and proper chromatic number "
                      "on the small corpus"):
        checked_small = 0
        checked_proper = 0
        for h in small_corpus():
            if h.n > 16:
                continue
            res = chi_cf_exact(h)
            greedy = greedy_cf_coloring(h)
            assert res.chi_cf <= greedy.palette
            checked_small += 1
            if stats(h).uniform_r in (2, 3):
                prop = chi_proper_exact(h)
                assert prop is not None and prop.chi_cf == res.chi_cf
                checked_proper += 1
        assert checked_small >= 100
        assert checked_proper >= 20
