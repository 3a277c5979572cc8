"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that:
1. the correctness gate trips when a real command's output is checked
   against a deliberately wrong expected answer, and passes the right one;
2. two traced runs with the same seed report identical kernel calls and
   nodes, and every traced command's self times add up to its wall time
   as the run measured it, within spans.GAP_SHARE of it plus
   spans.GAP_FLOOR_S;
3. a kernel that is a compiled callable rather than a Python function is
   still wrapped and counted;
4. without the cfhyper sources next to it, run.py exits nonzero and prints
   no result.
Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def gate_trips(workdir: Path) -> None:
    import check
    from run import run_cli
    from workloads import Inputs, cycle, g_tr, k4e_gadget

    inputs = Inputs(random.Random(0), workdir)
    n, edges = g_tr(1, 7)
    path, inst = inputs.instance(n, edges)
    rc, out, _ = run_cli(["factor", "--a", "1", "--b", "6", path])
    assert check.factor(rc, out, inst, 1, 6, exists=False) is None
    assert check.factor(rc, out, inst, 1, 6, exists=True) is not None

    path, inst = inputs.instance(16, k4e_gadget(8))
    rc, out, _ = run_cli(["chi-cf", path])
    assert check.chi_cf(rc, out, inst, 4) is None
    assert check.chi_cf(rc, out, inst, 3) is not None

    path, inst = inputs.instance(7, cycle(7))
    colored = inputs.path("col")
    rc, _, _ = run_cli(["color", "--algo", "greedy", path, "-o", str(colored)])
    assert check.color_file(rc, "", colored, inst, 3) is None
    colored.write_text(f"coloring 7\n{' '.join(['1'] * 7)}\n")  # wrong witness
    assert check.color_file(rc, "", colored, inst, 3) is not None
    rc, out, _ = run_cli(["verify", path, str(colored)])
    assert rc == 1 and check.verify(rc, out, inst, colored) is None
    assert check.verify(0, "", inst, colored) is not None

    rc, out, _ = run_cli(["stats", path])
    assert check.stats(rc, out, inst) is None
    assert check.stats(rc, out, check.Instance(7, inst.edges[:-1])) is not None

    rc, out, _ = run_cli(["factor", "--a", "2", "--b", "2", path])
    assert check.factor(rc, out, inst, 2, 2, exists=True) is None
    assert check.factor(rc, "factor 7\n1 2\n", inst, 2, 2, exists=True) is not None
    print("ok: the correctness gate trips on wrong expected answers")


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    context = json.loads(next(x for x in lines if x.startswith("context "))[8:])
    return context, json.loads(lines[-1])["metrics"]


def counts_repeat() -> None:
    import spans

    for workload in ("exact", "color4"):
        (c1, m1), (c2, m2) = traced(workload, 3), traced(workload, 3)
        keys = [k for k in m1 if k.startswith("kernels.")
                and k.endswith((".calls", ".nodes"))]
        for key in keys:
            assert m1[key]["value"] == m2[key]["value"], (workload, key)
        assert m1["kernels.solve_degree_constrained.calls"]["value"] > 0
        gap = c1["self_time_gap"]
        assert gap["over"] == c2["self_time_gap"]["over"] == 0, (gap, c2)
        counts = ", ".join(f"{k}={m1[k]['value']:.0f}" for k in keys)
        print(f"ok: {workload}: {counts} repeat exactly; self times cover "
              f"each command's wall time, largest gap {gap['max_s'] * 1e6:.0f} us")


def compiled_kernels_wrapped() -> None:
    import spans
    from cfhyper import factors, kernels
    from cfhyper.model import Hypergraph

    class Compiled:  # stands in for a Cython function: callable, no __code__
        def __init__(self, fn):
            self.fn = fn

        def __call__(self, *args, **kwargs):
            return self.fn(*args, **kwargs)

    originals = {k: getattr(kernels, k) for k in spans.KERNELS}
    try:
        for name, fn in originals.items():
            setattr(kernels, name, Compiled(fn))
        tracer = spans.Tracer()
        patch = spans.Patch(tracer)
        patch.apply()
        try:
            square = Hypergraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
            factors.find_ab_factor(square, 1, 1)
        finally:
            patch.restore()
    finally:
        for name, fn in originals.items():
            setattr(kernels, name, fn)
    calls = spans.layer_metrics(tracer)["kernels.solve_degree_constrained.calls"]
    assert calls[0] > 0, calls
    print("ok: compiled (non-function) kernels are wrapped and counted")


def refuses_without_sources(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok: without sources run.py exits", proc.returncode, "and prints no result")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    workdir = HERE / "work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        gate_trips(workdir)
        refuses_without_sources(workdir)
        compiled_kernels_wrapped()
        counts_repeat()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
