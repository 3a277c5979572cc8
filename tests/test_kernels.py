"""Backend agreement: the compiled kernels must match the pure reference
node for node, witness for witness."""

import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import cfhyper
from cfhyper.kernels import available_backends

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
        lo, hi = [a] * n, [b] * n
        if n and rng.random() < 0.5:
            w = rng.randrange(n)
            lo[w] = hi[w] = rng.randint(0, 3)
        yield n, eu, ev, lo, hi, rng.choice([7, 10**6])


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


@needs_compiled
def test_degree_constrained_agreement():
    pure, compiled = BACKENDS["pure"], BACKENDS["compiled"]
    for n, eu, ev, lo, hi, budget in _random_degree_instances(300, 11):
        r1 = pure.solve_degree_constrained(n, eu, ev, lo, hi, budget)
        r2 = compiled.solve_degree_constrained(n, eu, ev, lo, hi, budget)
        assert r1 == r2, (n, list(zip(eu, ev)), lo, hi, budget)


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
        3, [0, 1, 2], [1, 2, 0], [1, 1, 1], [1, 1, 1], 10**6)
    assert status == impl.UNSAT and sel is None
    # 4-cycle perfect matching: first witness in search order picks edge 0
    status, sel, _ = impl.solve_degree_constrained(
        4, [0, 1, 2, 3], [1, 2, 3, 0], [1] * 4, [1] * 4, 10**6)
    assert status == impl.FOUND and sel == [1, 0, 1, 0]
    # budget 0: the 4-cycle needs at least one branch decision
    status, _, nodes = impl.solve_degree_constrained(
        4, [0, 1, 2, 3], [1, 2, 3, 0], [1] * 4, [1] * 4, 0)
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
        lo = [1] * h.n
        hi = [6] * h.n
        lo[hub - 1] = hi[hub - 1] = hub_degree
        r1 = BACKENDS["pure"].solve_degree_constrained(
            h.n, eu, ev, lo, hi, 10**8)
        r2 = BACKENDS["compiled"].solve_degree_constrained(
            h.n, eu, ev, lo, hi, 10**8)
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
# (n, eu, ev, lo, hi, budget)
DEGREE_EDGE_CASES = {
    "budget 0": (4, *_C4, [1] * 4, [2] * 4, 0),
    "no edges, unsatisfiable": (3, [], [], [0, 1, 0], [0, 2, 0], 10),
    "no edges, satisfied": (3, [], [], [0] * 3, [0] * 3, 10),
    "vertex pinned to degree 0": (4, [0, 0, 1, 2], [1, 2, 2, 3],
                                  [0, 1, 1, 1], [0, 2, 2, 2], 100),
    # every degree pinned: propagation outgrows the initial queue of 4m + 16
    "K12 pinned to 0": (12, *_K12, [0] * 12, [0] * 12, 100),
    "K12 pinned to 11": (12, *_K12, [11] * 12, [11] * 12, 100),
    # past C int and long long: clamped without changing the search
    "huge budget and degrees": (4, *_C4, [1] * 4, [10**20] * 4, 10**20),
    "negative budget and degrees": (4, *_C4, [-10**20] * 4, [1] * 4, -10**20),
}
# (n, edges, k, mode)
COLOR_EDGE_CASES = {
    "k above n": (3, [(0, 1, 2)], 10**5, 0),
    "k 0": (3, [(0, 1)], 0, 1),
    "negative k": (2, [(0, 1)], -5, 1),
    "no vertices": (0, [], 3, 0),
    "no edges": (4, [], 2, 1),
}


@needs_compiled
@pytest.mark.parametrize("case", sorted(DEGREE_EDGE_CASES))
def test_degree_constrained_edge_cases(case):
    args = DEGREE_EDGE_CASES[case]
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


@needs_compiled
@pytest.mark.parametrize("call", [
    lambda k: k.solve_degree_constrained(3, [0], [3], [1] * 3, [1] * 3, 9),
    lambda k: k.solve_degree_constrained(3, [-1], [0], [1] * 3, [1] * 3, 9),
    lambda k: k.solve_degree_constrained(3, [0, 1], [1], [1] * 3, [1] * 3, 9),
    lambda k: k.solve_degree_constrained(3, [0], [1], [1] * 2, [1] * 3, 9),
    lambda k: k.color_search(3, [(0, 1), (2, 3)], 2, 0),
    lambda k: k.color_search(3, [(0, -1)], 2, 1),
])
def test_compiled_rejects_bad_input(call):
    # the C code trusts its arrays; the wrapper must stop these first
    with pytest.raises(ValueError):
        call(BACKENDS["compiled"])


_SANITIZED_RUN = """
import sys
from cfhyper import _kernels_c, _kernels_py
from test_kernels import (DEGREE_EDGE_CASES, _random_color_instances,
                          _random_degree_instances)
_kernels_c._lib = _kernels_c._bind(sys.argv[1])
count = 0
for args in [*DEGREE_EDGE_CASES.values(), *_random_degree_instances(1500, 21)]:
    expected = _kernels_py.solve_degree_constrained(*args)
    assert _kernels_c.solve_degree_constrained(*args) == expected, args
    count += 1
for args in _random_color_instances(1500, 22):
    assert _kernels_c.color_search(*args) == _kernels_py.color_search(*args), args
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
    env = dict(os.environ, LD_PRELOAD=libasan, ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=os.pathsep.join(
                   [str(Path(cfhyper.__file__).parents[1]), str(Path(__file__).parent)]))
    run = subprocess.run([sys.executable, "-c", _SANITIZED_RUN, str(lib)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-4000:]
    assert int(run.stdout) >= 3000


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
