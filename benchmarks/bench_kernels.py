"""Benchmark the pure-Python search kernels against the compiled twin.

Runs the two hot workloads through every importable backend and prints a
table of wall times and speedups:

    python benchmarks/bench_kernels.py [--repeat N]

Runs from the root of a source checkout and imports cfhyper from ./src.
Each repetition times every backend once, back to back, and the order
alternates between repetitions, so a drift in host speed hits both sides
of a ratio alike. The table gives each backend's median time and the
median of the per-repetition pure/compiled ratios.

Workloads:
* block refutation: the kernel's exhaustive UNSAT searches on the
  building block of the 7-regular counterexample graph with its hub at
  degree 0 and 3, every other vertex at degree 1 or 6. find_ab_factor
  no longer sends these queries to the kernel (its signed-sum test
  refutes them), so they are posed to the kernel directly;
* exact coloring: conflict-free chromatic number of the 3-regular
  mixed-size gadget on 24 vertices (backtracking dominates).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cfhyper.constructions import build_h_block, k4e_gadget  # noqa: E402
from cfhyper.kernels import available_backends  # noqa: E402


def _hub_queries(t: int, r: int) -> list[tuple]:
    """The kernel queries of h_block(t, r) with its hub pinned to degree 0
    or t + 2, the two the paper's counting argument rules out."""
    h, roles = build_h_block(t, r)
    hub = roles.vertices("u")[0] - 1
    eu = [u - 1 for u, _ in h.edges]
    ev = [v - 1 for _, v in h.edges]
    queries = []
    for degree in (0, t + 2):
        allowed = [(t, r - t)] * h.n
        allowed[hub] = (degree,)
        queries.append((h.n, eu, ev, allowed))
    return queries


HUB_QUERIES = _hub_queries(1, 7)


def bench_factor(impl) -> None:
    for n, eu, ev, allowed in HUB_QUERIES:
        status, _, _ = impl.solve_degree_constrained(n, eu, ev, allowed, 10**8)
        assert status == impl.UNSAT


def bench_chi_cf(impl) -> None:
    h = k4e_gadget(12)
    edges0 = [tuple(v - 1 for v in e) for e in h.edges]
    for k in (3, 4):
        colors, _ = impl.color_search(h.n, edges0, k, impl.CONFLICT_FREE)
        assert (colors is None) == (k == 3)


WORKLOADS = [
    ("{1,6} hub-degree refutations, 14-vertex block", bench_factor),
    ("exact chi_cf of the 24-vertex gadget", bench_chi_cf),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="repetitions per workload (default 5)")
    args = parser.parse_args()

    backends = available_backends()
    names = sorted(backends)
    print(f"backends: {', '.join(names)}")
    for label, workload in WORKLOADS:
        print(f"\n{label}")
        timings: dict[str, list[float]] = {name: [] for name in names}
        for rep in range(args.repeat):
            for name in names if rep % 2 == 0 else reversed(names):
                timings[name].append(_timed(workload, backends[name]))
        for name in names:
            print(f"  {name:>9}: {median(timings[name]) * 1000:9.2f} ms")
        if "pure" in timings and "compiled" in timings:
            ratio = median(
                p / c for p, c in zip(timings["pure"], timings["compiled"]))
            print(f"  {'speedup':>9}: {ratio:9.1f} x")


def _timed(workload, impl) -> float:
    start = time.perf_counter()
    workload(impl)
    return time.perf_counter() - start


if __name__ == "__main__":
    main()
