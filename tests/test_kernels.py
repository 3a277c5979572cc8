"""Backend agreement: the compiled kernels must match the pure reference
node for node, witness for witness."""

import hashlib
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import cfhyper
from cfhyper import Coloring, Hypergraph, graph_io, kernels
from cfhyper.kernels import CONFLICT_FREE, FEW_COLORS, FOUND, available_backends

from test_verify import _counter_reference

BACKENDS = available_backends()

# cfhyper._kernels_c compiles its C file with the compiler sysconfig links
# extensions with; where that compiler exists the compiled backend must load.
_LDSHARED = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
_COMPILER = (_LDSHARED or [""])[0]
needs_toolchain = pytest.mark.skipif(
    shutil.which(_COMPILER) is None, reason="no C compiler to build the kernels")
needs_compiled = pytest.mark.skipif(
    "compiled" not in BACKENDS, reason="compiled kernels not built")


@needs_toolchain
def test_compiled_backend_present():
    # the build is expected to produce the extension in this environment
    assert "pure" in BACKENDS
    assert "compiled" in BACKENDS, "compiled kernels missing; rebuild the package"


def _random_degree_instances(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 10)
        m = rng.randint(0, 18)
        eu, ev = [], []
        for _ in range(m):
            if n < 2:
                break
            u, v = rng.sample(range(n), 2)
            eu.append(u)
            ev.append(v)
        a = rng.randint(1, 3)
        b = rng.randint(a, 4)
        allowed = [{a, b}] * n
        if n and rng.random() < 0.5:
            w = rng.randrange(n)
            allowed[w] = {rng.randint(0, 3)}
        yield n, eu, ev, allowed, rng.choice([7, 10**6])


# degrees a search can meet, then ones it never can: negative, past m,
# past a C int and past a long long
_REACHABLE = range(7)
_UNREACHABLE = (-10**20, -2**31 - 1, -1, 19, 2**31, 10**20)


def _random_allowed_instances(count, seed):
    """Like _random_degree_instances, with 0 to 4 allowed degrees per vertex."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 9)
        pairs = [rng.sample(range(n), 2) for _ in range(rng.randint(0, 16))] if n > 1 else []
        allowed = []
        for _ in range(n):
            size = 0 if rng.random() < 0.02 else rng.randint(1, 4)
            allowed.append(tuple(
                rng.choice(_UNREACHABLE) if rng.random() < 0.1 else rng.choice(_REACHABLE)
                for _ in range(size)))
        yield (n, [u for u, _ in pairs], [v for _, v in pairs], allowed,
               rng.choice([0, 5, 10**6]))


def _random_color_instances(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 9)
        m = rng.randint(0, 10)
        edges = []
        for _ in range(m):
            if n == 0:
                break
            size = rng.randint(1, min(n, 5))
            edges.append(tuple(sorted(rng.sample(range(n), size))))
        yield n, edges, rng.randint(1, 4), rng.choice([0, 1])


def _random_scan_instances(count, seed):
    """(n, edges, colors, which) for the edge passes: edges of 1 to 6 ids in
    0..n-1, repeats inside an edge allowed, now and then a 300-id edge,
    colors from 0 up to 10**30, which None or any edges in any order."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice([0, 1, rng.randint(2, 9)])
        edges = [rng.choices(range(n), k=rng.randint(1, 6))
                 for _ in range(rng.randint(0, 8) if n else 0)]
        if rng.random() < 0.05:
            n = 300
            edges.insert(rng.randint(0, len(edges)), rng.sample(range(n), n))
        top = rng.choice([1, 2, 4, n + 1, 2**31, 10**30])
        colors = [rng.randint(0, top) for _ in range(n)]
        which = (None if rng.random() < 0.3 or not edges
                 else rng.choices(range(len(edges)), k=rng.randint(0, 10)))
        yield n, edges, colors, which


def _scan_results(backend, n, edges, colors, which):
    """Every test of scan_edges on one instance, then its incidence, edge
    degree and component labels."""
    flat = backend.flatten(edges)
    incidence = backend.incidence(n, flat)
    return ([backend.scan_edges(flat, colors, mode, t, which)
             for mode, t in ((CONFLICT_FREE, 0), (FEW_COLORS, 1), (FEW_COLORS, 3))],
            [list(a) for a in incidence], backend.edge_degree(n, flat, incidence),
            list(backend.components(n, flat)))


@needs_compiled
def test_edge_passes_agreement():
    pure, compiled = BACKENDS["pure"], BACKENDS["compiled"]
    for args in _random_scan_instances(1500, 41):
        assert _scan_results(pure, *args) == _scan_results(compiled, *args), args


@st.composite
def colored_hypergraphs(draw):
    """A Hypergraph with a coloring: size-1 and 300-vertex edges, repeated
    edges, mixed sizes, n or m 0, colors up to 10**30."""
    n = draw(st.sampled_from([0, 1, 2, 5, 9, 300]))
    edge = st.lists(st.integers(1, n), min_size=1, max_size=min(n, 6), unique=True)
    edges = draw(st.lists(edge, max_size=8)) if n else []
    if n == 300 and draw(st.booleans()):
        edges.append(range(1, 301))
    if edges and draw(st.booleans()):
        edges.append(draw(st.sampled_from(edges)))  # a repeated edge
    rng = random.Random(draw(st.integers(0, 2**32)))
    top = draw(st.sampled_from([1, 2, 3, 10**30]))
    return (Hypergraph.from_edges(n, edges),
            Coloring(tuple(rng.randint(1, top) for _ in range(n))))


@given(colored_hypergraphs(), st.randoms(use_true_random=False))
def test_edge_passes_match_the_counter_reference(case, rng):
    h, c = case
    colors = (0, *c.colors)  # vertex ids are 1-based
    unique_free = [e for e, w in enumerate(_counter_reference(h, c)) if w is None]
    few = [[e for e, edge in enumerate(h.edges) if len({colors[v] for v in edge}) <= t]
           for t in (1, 3)]
    which = [rng.randrange(h.m) for _ in range(rng.randint(0, 2 * h.m))]
    rows = [[] for _ in range(h.n + 1)]
    for e, edge in enumerate(h.edges):
        for v in edge:
            rows[v].append(e)
    for backend in BACKENDS.values():
        flat = backend.flatten(h.edges)
        assert backend.scan_edges(flat, colors, CONFLICT_FREE, 0) == unique_free
        assert [backend.scan_edges(flat, colors, FEW_COLORS, t) for t in (1, 3)] == few
        assert (backend.scan_edges(flat, colors, CONFLICT_FREE, 0, which)
                == [e for e in which if e in unique_free])
        vptr, vedges = backend.incidence(h.n + 1, flat)
        assert [list(vedges[a:b]) for a, b in zip(vptr, vptr[1:])] == rows


@needs_compiled
def test_degree_constrained_agreement():
    pure, compiled = BACKENDS["pure"], BACKENDS["compiled"]
    for n, eu, ev, allowed, budget in [*_random_degree_instances(300, 11),
                                       *_random_allowed_instances(600, 13)]:
        r1 = pure.solve_degree_constrained(n, eu, ev, allowed, budget)
        r2 = compiled.solve_degree_constrained(n, eu, ev, allowed, budget)
        assert r1 == r2, (n, list(zip(eu, ev)), allowed, budget)


# sha256 of repr([(status, selection, nodes), ...]) over
# _random_degree_instances(300, 11) and then DEGREE_EDGE_CASES by name, as
# the kernels returned them when each vertex took a pair (lo, hi) instead
# of a set; the sets {lo, hi} must walk the same trees
GOLDEN_LO_HI_DIGEST = "44ab42fdcceeb783ac025a5daa8a2925936d75e49a0103a5fdbea79d13421228"


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_allowed_sets_reproduce_lo_hi_results(name):
    solve = BACKENDS[name].solve_degree_constrained
    results = [solve(*args) for args in [
        *_random_degree_instances(300, 11),
        *(DEGREE_EDGE_CASES[case] for case in sorted(DEGREE_EDGE_CASES))]]
    assert hashlib.sha256(repr(results).encode()).hexdigest() == GOLDEN_LO_HI_DIGEST


def _brute_force_selection(n, eu, ev, allowed):
    """Whether some edge subset gives every vertex an allowed degree."""
    for mask in range(1 << len(eu)):
        deg = [0] * n
        for i in range(len(eu)):
            if mask >> i & 1:
                deg[eu[i]] += 1
                deg[ev[i]] += 1
        if all(deg[v] in allowed[v] for v in range(n)):
            return True
    return False


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_allowed_sets_against_brute_force(name):
    solve = BACKENDS[name].solve_degree_constrained
    for n, eu, ev, allowed, _ in _random_allowed_instances(250, 14):
        if len(eu) > 10:
            continue
        status, sel, _ = solve(n, eu, ev, allowed, 10**6)
        assert (status == FOUND) == _brute_force_selection(n, eu, ev, allowed)
        if status == FOUND:
            deg = [0] * n
            for i, flag in enumerate(sel):
                deg[eu[i]] += flag
                deg[ev[i]] += flag
            assert all(deg[v] in allowed[v] for v in range(n))


@needs_compiled
def test_color_search_agreement():
    pure, compiled = BACKENDS["pure"], BACKENDS["compiled"]
    for n, edges, k, mode in _random_color_instances(300, 12):
        r1 = pure.color_search(n, edges, k, mode)
        r2 = compiled.color_search(n, edges, k, mode)
        assert r1 == r2, (n, edges, k, mode)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_selection_statuses(name):
    impl = BACKENDS[name]
    # triangle, perfect matching impossible
    status, sel, nodes = impl.solve_degree_constrained(
        3, [0, 1, 2], [1, 2, 0], [{1}] * 3, 10**6)
    assert status == impl.UNSAT and sel is None
    # 4-cycle perfect matching: first witness in search order picks edge 0
    status, sel, _ = impl.solve_degree_constrained(
        4, [0, 1, 2, 3], [1, 2, 3, 0], [{1}] * 4, 10**6)
    assert status == impl.FOUND and sel == [1, 0, 1, 0]
    # budget 0: the 4-cycle needs at least one branch decision
    status, _, nodes = impl.solve_degree_constrained(
        4, [0, 1, 2, 3], [1, 2, 3, 0], [{1}] * 4, 0)
    assert status == impl.BUDGET and nodes == 1


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_color_search_basics(name):
    impl = BACKENDS[name]
    # a 3-edge conflict-free colors with 2 colors
    colors, nodes = impl.color_search(3, [(0, 1, 2)], 2, impl.CONFLICT_FREE)
    assert colors == [1, 1, 2] or colors == [1, 2, 2]
    # ... but the canonical first witness is (1, 1, 2)
    assert colors == [1, 1, 2]
    # K3 proper needs 3
    colors, _ = impl.color_search(3, [(0, 1), (1, 2), (0, 2)], 2, impl.PROPER)
    assert colors is None
    colors, _ = impl.color_search(3, [(0, 1), (1, 2), (0, 2)], 3, impl.PROPER)
    assert colors == [1, 2, 3]
    # empty instance
    assert impl.color_search(0, [], 1, impl.CONFLICT_FREE) == ([], 0)


@needs_compiled
def test_big_block_agreement():
    """The two backends walk the same tree on a real refutation workload.

    With all three hub edges excluded or all three selected, a counting
    argument modulo r-2t = 5 rules out interior degrees {1,6}, so those
    cases must come back UNSAT; witnesses for the other cases are
    re-verified degree by degree.
    """
    from cfhyper.constructions import build_h_block

    h, roles = build_h_block(1, 7)
    hub = roles.vertices("u")[0]
    eu = [u - 1 for u, _ in h.edges]
    ev = [v - 1 for _, v in h.edges]
    for hub_degree in (0, 1, 2, 3):
        allowed = [{1, 6}] * h.n
        allowed[hub - 1] = {hub_degree}
        r1 = BACKENDS["pure"].solve_degree_constrained(
            h.n, eu, ev, allowed, 10**8)
        r2 = BACKENDS["compiled"].solve_degree_constrained(
            h.n, eu, ev, allowed, 10**8)
        assert r1 == r2
        status, sel, _ = r1
        if hub_degree in (0, 3):
            assert status == BACKENDS["pure"].UNSAT
        if status == BACKENDS["pure"].FOUND:
            deg = [0] * h.n
            for i, flag in enumerate(sel):
                if flag:
                    deg[eu[i]] += 1
                    deg[ev[i]] += 1
            assert deg[hub - 1] == hub_degree
            assert all(
                deg[v] in (1, 6) for v in range(h.n) if v != hub - 1)


def _complete_graph(n):
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return [a for a, _ in pairs], [b for _, b in pairs]


_C4 = ([0, 1, 2, 3], [1, 2, 3, 0])
_K12 = _complete_graph(12)
# (n, eu, ev, allowed, budget)
DEGREE_EDGE_CASES = {
    "budget 0": (4, *_C4, [{1, 2}] * 4, 0),
    "no edges, unsatisfiable": (3, [], [], [{0}, {1, 2}, {0}], 10),
    "no edges, satisfied": (3, [], [], [{0}] * 3, 10),
    "vertex pinned to degree 0": (4, [0, 0, 1, 2], [1, 2, 2, 3],
                                  [{0}, {1, 2}, {1, 2}, {1, 2}], 100),
    # every degree pinned: propagation outgrows the initial queue of 4m + 16
    "K12 pinned to 0": (12, *_K12, [{0}] * 12, 100),
    "K12 pinned to 11": (12, *_K12, [{11}] * 12, 100),
    # past C int and long long: clamped without changing the search
    "huge budget and degrees": (4, *_C4, [{1, 10**20}] * 4, 10**20),
    "negative budget and degrees": (4, *_C4, [{-10**20, 1}] * 4, -10**20),
}
# sets other than pairs; not part of the lo/hi digest above
ALLOWED_EDGE_CASES = {
    "empty set": (4, *_C4, [{1}, set(), {1}, {1}], 10),
    "every degree allowed": (12, *_K12, [range(12)] * 12, 100),
    "only past C ints": (4, *_C4, [{2**31, -2**31 - 1}] * 4, 10),
    "one reachable value among huge ones": (4, *_C4, [[-10**20, 2, 10**20]] * 4, 10),
    "a gap of two": (12, *_K12, [{1, 4}, *[{2, 4, 11}] * 11], 10**6),
}
# (n, edges, k, mode)
COLOR_EDGE_CASES = {
    "k above n": (3, [(0, 1, 2)], 10**5, 0),
    "k 0": (3, [(0, 1)], 0, 1),
    "negative k": (2, [(0, 1)], -5, 1),
    "no vertices": (0, [], 3, 0),
    "no edges": (4, [], 2, 1),
}


_LONG_EDGE = " ".join(map(str, range(300, 0, -1))).encode()  # qsorted: past 256 ids
# (body, n, m, (ends, ids) or None for a decline)
PARSE_EDGE_CASES = {
    "empty buffer, no edges": (b"", 3, 0, ([0], [])),
    "empty buffer, one edge": (b"", 3, 1, None),
    "unterminated last line": (b"3 1\n2\t3", 3, 2, ([0, 2, 4], [1, 3, 2, 3])),
    "trailing blank lines": (b"1 2\n \t\n\n", 3, 1, ([0, 2], [1, 2])),
    "more lines than m": (b"1 2\n2 3\n", 3, 1, None),
    "fewer lines than m": (b"1 2\n", 3, 2, None),
    "m past the lines there": (b"1 2\n", 3, 2**31 - 1, None),
    "largest id": (b"2147483645 1\n", kernels.MAX_N, 1, ([0, 2], [1, 2147483645])),
    "id past a C int": (b"2147483648\n", 2**31 - 1, 1, None),
    "overflowing digit run": (b"1 " + b"9" * 40 + b"\n", 3, 1, None),
    "ten digits": (b"0000000002\n", 3, 1, ([0, 1], [2])),
    "eleven digits": (b"00000000002\n", 3, 1, None),
    "zero": (b"0 1\n", 3, 1, None),
    "repeated id": (b"2 1 2\n", 3, 1, None),
    "long edge": (_LONG_EDGE + b"\n", 300, 1, ([0, 300], list(range(1, 301)))),
    "repeat in a long edge": (_LONG_EDGE + b" 7\n", 300, 1, None),
    "blank edge line": (b"1 2\n\n2 3\n", 3, 2, None),
    "carriage return": (b"1 2\r\n", 3, 1, None),
    "comment": (b"1 2\n# c\n", 3, 1, None),
    "NUL byte": (b"1\x002\n", 3, 1, None),
    "non-ASCII byte": (b"1\xc2\xa02\n", 3, 1, None),
    "no vertices": (b"1\n", 0, 1, None),
    "n past a C int": (b"1\n", 2**31, 1, None),
    "negative m": (b"", 3, -1, None),
}


def _random_parse_buffers(count, seed):
    """(body, n, m): edge lines, some broken by a stray byte or digit run."""
    rng = random.Random(seed)
    for _ in range(count):
        n, m = rng.randint(1, 9), rng.randint(0, 6)
        lines = []
        for _ in range(max(0, m + rng.choice([-1, 0, 0, 0, 1]))):
            ids = rng.sample(range(1, n + 1), rng.randint(1, min(n, 5)))
            if rng.random() < 0.1:
                ids.append(rng.choice([0, n + 1, ids[0]]))
            lines.append(rng.choice([" ", "\t", " \t "]).join(map(str, ids)))
        body = "\n".join(lines) + rng.choice(["", "\n", "\n \n"])
        if body and rng.random() < 0.3:
            at = rng.randrange(len(body))
            stray = rng.choice(["\t", "\r", "#", "+", "x", "\x00", "9" * 12, "\n\n"])
            body = body[:at] + stray + body[at:]
        yield body.encode(), n, m


def _reference_edges(body, n, m):
    """graph_io's reference parse of the body as (ends, ids), or None."""
    parse, kernels.parse_edges = kernels.parse_edges, None
    try:
        h = graph_io.load_hypergraph(b"hypergraph %d %d\n" % (n, m) + body)
    except ValueError:
        return None
    finally:
        kernels.parse_edges = parse
    ids = [v for edge in h.edges for v in edge]
    return [0, *accumulate(map(len, h.edges))], ids


def _check_parse(parse_edges, body, n, m):
    """The kernel's parse, which the reference must read alike when accepted,
    and which a body at an offset, after bytes it would decline, gets too."""
    got = parse_edges(body, n, m)
    head = b"# header\r\n"
    at_offset = parse_edges(head + body, n, m, len(head))
    assert (got is None and at_offset is None) or (
        got[0] == at_offset[0] and got[1] == at_offset[1]), (body, n, m)
    if got is not None:
        got = got[0].tolist(), got[1].tolist()
        assert got == _reference_edges(body, n, m), (body, n, m)
    return got


@needs_compiled
@pytest.mark.parametrize("case", sorted(PARSE_EDGE_CASES))
def test_parse_edges_edge_cases(case):
    body, n, m, expected = PARSE_EDGE_CASES[case]
    assert _check_parse(BACKENDS["compiled"].parse_edges, body, n, m) == expected


@needs_compiled
def test_parse_edges_agrees_with_the_reference():
    accepted = sum(_check_parse(BACKENDS["compiled"].parse_edges, *args) is not None
                   for args in _random_parse_buffers(3000, 31))
    assert 600 < accepted < 2400  # both outcomes are exercised


@needs_compiled
@pytest.mark.parametrize("body", [b"1 2\n2 3\n# end\n", b"# c\n1 2\n2 3\n", b"1 2\r\n2 3\r\n"])
def test_parse_edges_declines_comments_and_cr_before_the_kernel(monkeypatch, body):
    compiled = BACKENDS["compiled"]
    monkeypatch.setattr(compiled, "_lib", None)  # any kernel call would raise
    assert compiled.parse_edges(body, 3, 2) is None


@needs_compiled
@pytest.mark.parametrize("case", sorted({**DEGREE_EDGE_CASES, **ALLOWED_EDGE_CASES}))
def test_degree_constrained_edge_cases(case):
    args = {**DEGREE_EDGE_CASES, **ALLOWED_EDGE_CASES}[case]
    assert (BACKENDS["compiled"].solve_degree_constrained(*args)
            == BACKENDS["pure"].solve_degree_constrained(*args))


@needs_compiled
@pytest.mark.parametrize("case", sorted(COLOR_EDGE_CASES))
def test_color_search_edge_cases(case):
    args = COLOR_EDGE_CASES[case]
    assert BACKENDS["compiled"].color_search(*args) == BACKENDS["pure"].color_search(*args)


@needs_compiled
def test_compiled_clamps_a_huge_palette():
    compiled = BACKENDS["compiled"]
    assert (compiled.color_search(3, [(0, 1, 2)], 10**30, 0)
            == compiled.color_search(3, [(0, 1, 2)], 3, 0))


# calls refused with a ValueError: by the wrapper when an array length or a
# number past C int range cannot be passed on, else by the C code, which
# checks every id it reads; the ASan/UBSan run checks that it reads nothing
# out of range while doing so
BAD_INPUT_CALLS = [
    lambda k: k.solve_degree_constrained(3, [0], [3], [{1}] * 3, 9),
    lambda k: k.solve_degree_constrained(3, [-1], [0], [{1}] * 3, 9),
    lambda k: k.solve_degree_constrained(3, [0], [2**31], [{1}] * 3, 9),
    lambda k: k.solve_degree_constrained(3, [0, 1], [1], [{1}] * 3, 9),
    lambda k: k.solve_degree_constrained(3, [0], [1], [{1}] * 2, 9),
    lambda k: k.solve_degree_constrained(3, [0], [1], [{1}] * 4, 9),
    lambda k: k.color_search(3, [(0, 1), (2, 3)], 2, 0),
    lambda k: k.color_search(3, [(0, -1)], 2, 1),
    lambda k: k.color_search(3, [(0, 2**31)], 2, 0),
    lambda k: k.scan_edges(([0, 2], [0, 3]), [1, 1, 1], 0, 0),
    lambda k: k.scan_edges(([0, 2], [-1, 0]), [1, 1, 1], 2, 1),
    lambda k: k.scan_edges(([0, 2], [0, 1]), [1, 1], 0, 0, [1]),
    lambda k: k.scan_edges(([0, 2], [0, 1]), [1, 1], 0, 0, [-1]),
    lambda k: k.scan_edges(([0, 3], [0, 1]), [1, 1], 0, 0),
    lambda k: k.scan_edges(([1, 0], [0, 1]), [1, 1], 0, 0),
    lambda k: k.incidence(2, ([0, 2], [0, 2])),
    lambda k: k.incidence(2, ([0, 2, 1], [0, 1])),
    lambda k: k.incidence(-1, ([0], [])),
    lambda k: k.edge_degree(2, ([0, 2], [0, 2]), ([0, 1, 2], [0, 0])),
    lambda k: k.edge_degree(2, ([0, 2, 1], [0, 1]), ([0, 1, 2], [0, 0])),
    lambda k: k.edge_degree(2, ([0, 2], [0, 1]), ([0, 1], [0])),
    lambda k: k.edge_degree(2, ([0, 2], [0, 1]), ([0, 1, 2, 2], [0, 0])),
    lambda k: k.edge_degree(2, ([0, 2], [0, 1]), ([-1, 1, 2], [0, 0])),
    lambda k: k.edge_degree(2, ([0, 2], [0, 1]), ([0, 2, 1], [0, 0])),
    lambda k: k.edge_degree(2, ([0, 2], [0, 1]), ([0, 1, 3], [0, 0])),
    lambda k: k.edge_degree(2, ([0, 2], [0, 1]), ([0, 1, 2], [0, 1])),
    lambda k: k.edge_degree(2, ([0, 2], [0, 1]), ([0, 1, 2], [0, -1])),
    lambda k: k.edge_degree(-1, ([0], []), ([0], [])),
    lambda k: k.components(2, ([0, 2], [0, 2])),
    lambda k: k.components(2, ([0, 2], [-1, 0])),
    lambda k: k.components(2, ([0, 2, 1], [0, 1])),
    lambda k: k.components(2, ([0, 3], [0, 1])),
    lambda k: k.components(-1, ([0], [])),
    lambda k: k.incidence(2, ([0, 1], [2**31])),
    lambda k: k.components(2, ([0, 1], [2**31])),
    lambda k: k.edge_degree(2, ([0, 1], [2**31]), ([0, 1, 1], [0])),
    lambda k: k.scan_edges(([0, 1], [2**31]), [1, 1], 0, 0),
    lambda k: k.scan_edges(([0, 1], [0]), [1, 1], 0, 0, [2**31]),
]


@needs_compiled
@pytest.mark.parametrize("call", BAD_INPUT_CALLS)
def test_compiled_rejects_bad_input(call):
    with pytest.raises(ValueError):
        call(BACKENDS["compiled"])


_SANITIZED_RUN = """
import sys
from cfhyper import _kernels_c, _kernels_py
from test_kernels import (ALLOWED_EDGE_CASES, BAD_INPUT_CALLS, DEGREE_EDGE_CASES,
                          PARSE_EDGE_CASES, _check_parse, _random_allowed_instances,
                          _random_color_instances, _random_degree_instances,
                          _random_parse_buffers, _random_scan_instances, _scan_results)
_kernels_c._lib = _kernels_c._bind(sys.argv[1])
count = 0
for args in [*DEGREE_EDGE_CASES.values(), *ALLOWED_EDGE_CASES.values(),
             *_random_degree_instances(1500, 21), *_random_allowed_instances(1500, 23)]:
    expected = _kernels_py.solve_degree_constrained(*args)
    assert _kernels_c.solve_degree_constrained(*args) == expected, args
    count += 1
for args in _random_color_instances(1500, 22):
    assert _kernels_c.color_search(*args) == _kernels_py.color_search(*args), args
    count += 1
for body, n, m, expected in PARSE_EDGE_CASES.values():
    assert _check_parse(_kernels_c.parse_edges, body, n, m) == expected, body
    count += 1
for args in _random_parse_buffers(1500, 24):
    _check_parse(_kernels_c.parse_edges, *args)
    count += 1
for args in _random_scan_instances(1500, 25):
    assert _scan_results(_kernels_c, *args) == _scan_results(_kernels_py, *args), args
    count += 1
for call in BAD_INPUT_CALLS:
    try:
        call(_kernels_c)
        raise AssertionError("bad input accepted")
    except ValueError:
        count += 1
print(count)
"""


def test_compiled_kernels_under_sanitizers(tmp_path):
    """The C source built with ASan and UBSan agrees with the pure kernels."""
    libasan = ""
    if shutil.which(_COMPILER):
        libasan = subprocess.run([_COMPILER, "-print-file-name=libasan.so"],
                                 capture_output=True, text=True).stdout.strip()
    if not os.path.isfile(libasan):
        pytest.skip("the C compiler has no libasan.so")
    lib = tmp_path / "kernels_sanitized.so"
    ccshared = shlex.split(sysconfig.get_config_var("CCSHARED") or "")
    build = subprocess.run(
        [*_LDSHARED, *ccshared, "-O1", "-g", "-fsanitize=address,undefined",
         "-fno-sanitize-recover=all",
         str(Path(cfhyper.__file__).with_name("_kernels_c.c")), "-o", str(lib)],
        capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    # PYTHONMALLOC=malloc: Python's small-object allocator would hide the
    # buffers the C code reads from ASan
    env = dict(os.environ, LD_PRELOAD=libasan, ASAN_OPTIONS="detect_leaks=0",
               PYTHONMALLOC="malloc",
               PYTHONPATH=os.pathsep.join(
                   [str(Path(cfhyper.__file__).parents[1]), str(Path(__file__).parent)]))
    run = subprocess.run([sys.executable, "-c", _SANITIZED_RUN, str(lib)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-4000:]
    assert int(run.stdout) >= 6000


def _import_backend(cache, backend="", path=None):
    """backend_name() and whether subprocess got imported, in a fresh process."""
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), CFHYPER_BACKEND=backend,
               PYTHONPATH=str(Path(cfhyper.__file__).parents[1]))
    if path is not None:
        env["PATH"] = str(path)
    return subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from cfhyper import kernels\n"
         "print(kernels.backend_name(), 'subprocess' in sys.modules)"],
        env=env, capture_output=True, text=True)


def _cached(cache):
    return sorted(p.name for p in (cache / "cfhyper").glob("*"))


@needs_toolchain
def test_build_is_cached_and_reused(tmp_path):
    first = _import_backend(tmp_path)
    assert first.stdout.split()[0] == "compiled", first.stderr
    built = _cached(tmp_path)
    assert len(built) == 1 and built[0].startswith("_kernels_c-")
    # no compiler on PATH: the cached file is loaded as it is
    second = _import_backend(tmp_path, path=tmp_path / "empty")
    assert second.stdout.split()[0] == "compiled", second.stderr
    assert _cached(tmp_path) == built


@needs_toolchain
def test_warm_import_leaves_subprocess_unimported(tmp_path):
    # the build tools cost resident memory; a cached build needs none of them
    cold = _import_backend(tmp_path)
    assert cold.stdout.split() == ["compiled", "True"], cold.stderr
    warm = _import_backend(tmp_path)
    assert warm.stdout.split() == ["compiled", "False"], warm.stderr


def test_pure_backend_never_builds(tmp_path):
    result = _import_backend(tmp_path, "pure")
    assert result.stdout.split()[0] == "pure", result.stderr
    assert not (tmp_path / "cfhyper").exists()


@pytest.mark.parametrize("value", ["auto", "python", "c"])
def test_unknown_backend_fails_the_import(tmp_path, value):
    result = _import_backend(tmp_path, value)
    assert result.returncode != 0 and result.stdout == ""
    assert "ImportError" in result.stderr and repr(value) in result.stderr


def test_fallback_without_compiler(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    result = _import_backend(tmp_path, path=empty)
    assert result.returncode == 0 and result.stdout.split()[0] == "pure"
    forced = _import_backend(tmp_path, "compiled", path=empty)
    assert forced.returncode != 0
    assert "not found on PATH" in forced.stderr


def test_fallback_with_unwritable_cache(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")  # the cache directory cannot be created inside a file
    result = _import_backend(blocker)
    assert result.returncode == 0 and result.stdout.split()[0] == "pure"
    forced = _import_backend(blocker, "compiled")
    assert forced.returncode != 0 and str(blocker) in forced.stderr
