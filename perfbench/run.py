"""End-to-end benchmark of the cfhyper CLI, with an optional traced run.

    python3 perfbench/run.py --workload {exact,color4,lll8} --seed N \\
        --seconds S --trace {0,1}

Runs from the root of a source checkout and imports cfhyper from ./src.
Commands go through cfhyper.cli.main(argv) in this one process, with
standard output captured, on instance files generated from --seed in a
scratch directory under perfbench/work/. Every output is checked by
check.py, which does not use cfhyper. The kernel backend is whichever
cfhyper.kernels selects; its name is recorded with the result.

--trace 0 (closed loop, one client): whole cycles of commands run until
at least S seconds of command time and at least 100 commands have passed,
and the end-to-end metrics are reported; set-up rounds, spread between
the commands and timed apart from them, give setup_s. Every command and
set-up round is timed, then scaled to a reference host speed by the
probe of speed.py, run between commands; the times as measured are
printed with the context.

--trace 1: a fixed number of cycles runs, each command once with every
layer wrapped by spans.py and once without, and the per-layer metrics are
reported. The traced work does not depend on timing, so its counts
repeat exactly for a seed. A cache in
cfhyper that outlived a command would distort the overhead ratio, since
the two runs of a command read the same input.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
command's output was correct and, in a traced run, the spans account for
each command's wall time.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from speed import Speed
from workloads import CYCLES, Inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_COMMANDS = 100  # the 90th percentile then has at least 10 samples above it
TRACED_CYCLES = {"exact": 3, "color4": 30, "lll8": 1}
# setup_s comes from this many set-up rounds, each generating and writing
# one cycle's instances, spread evenly between the commands of the first
# --seconds of command time. An lll8 round takes about 0.9 s.
SETUP_ROUNDS = {"exact": 40, "color4": 40, "lll8": 4}


def middle_mean(values: list[float]) -> float:
    """Mean of the middle half of the values.

    Like the median, it ignores the slow first set-up round (it creates
    the files) and stray pauses; unlike the median, it moves smoothly when
    the round times form clusters instead of jumping from one to another.
    """
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.mean(ordered[quarter:len(ordered) - quarter])


def run_cli(argv: list[str]) -> tuple[int | None, str, float]:
    """One CLI command in-process: (exit code or None if it raised, stdout, s)."""
    from cfhyper import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed command, not a failed run
            rc = None
            out.write(f"raised {exc!r}")
        seconds = perf_counter() - start
    return rc, out.getvalue(), seconds


class Run:
    """Command times, failures and set-up times accumulated over cycles.

    With a patch, each command runs once traced and once untraced, in
    alternating order; the traced run's output is checked and timed, the
    untraced time is kept for the overhead ratio.
    """

    def __init__(self, workload: str, seed: int, workdir: Path, patch=None,
                 setup_every: float | None = None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.inputs = Inputs(random.Random(f"{workload}/{seed}"), workdir / "run")
        self.patch = patch
        self.speed = Speed()
        self.times: list[float] = []  # as measured
        self.spans: list[tuple[float, float]] = []  # start and end of each
        self.plain: list[float] = []
        self.kinds: list[str] = []
        self.setup: list[float] = []  # as measured
        self.setup_spans: list[tuple[float, float]] = []
        self.setup_every = setup_every  # seconds of command time per round
        self.busy = 0.0  # command time so far
        self.cycles = 0
        self.failures: list[str] = []

    def execute(self, argv: list[str]) -> tuple[int | None, str, float]:
        if self.patch is None:
            return run_cli(argv)
        self.patch.tracer.command = len(self.times)
        for traced in (False, True) if len(self.times) % 2 else (True, False):
            if not traced:
                self.plain.append(run_cli(argv)[2])
                continue
            self.patch.apply()
            try:
                result = run_cli(argv)
            finally:
                self.patch.restore()
        return result

    def setup_rounds(self, busy: float) -> None:
        """Run the set-up rounds due by ``busy`` seconds of command time.

        A round times generating and writing one cycle's instances, drawn
        from a generator of its own, then empties them.
        """
        while (len(self.setup) < SETUP_ROUNDS[self.workload]
               and busy >= len(self.setup) * self.setup_every):
            inputs = Inputs(random.Random(f"{self.workload}/{self.seed}/setup"
                                          f"/{len(self.setup)}"),
                            self.workdir / "setup")
            self.speed.tick()
            start = perf_counter()
            CYCLES[self.workload](inputs)
            end = perf_counter()
            self.setup.append(end - start)
            self.setup_spans.append((start, end))
            inputs.clear()

    def cycle(self) -> None:
        commands = CYCLES[self.workload](self.inputs)
        self.cycles += 1
        results = []
        for cmd in commands:
            if self.setup_every is not None:
                self.setup_rounds(self.busy)
                self.speed.tick()
            start = perf_counter()
            rc, out, seconds = self.execute(cmd.argv)
            self.spans.append((start, perf_counter()))
            self.busy += seconds
            self.times.append(seconds)
            self.kinds.append(cmd.kind)
            results.append((cmd, rc, out))
        for cmd, rc, out in results:
            reason = cmd.check(rc, out)
            if reason is not None:
                self.failures.append(f"{cmd.kind}: {' '.join(cmd.argv)}: {reason}")
        self.inputs.clear()


def kind_summary(kinds: list[str], times: list[float]) -> dict[str, list]:
    """Per kind of command: count, median and largest seconds."""
    by_kind: dict[str, list[float]] = {}
    for kind, seconds in zip(kinds, times):
        by_kind.setdefault(kind, []).append(seconds)
    return {k: [len(v), round(statistics.median(v), 6), round(max(v), 6)]
            for k, v in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1]))}


def src_lines() -> int:
    """Non-generated source lines under src/ (the Cython output excluded)."""
    return sum(
        len(p.read_text(encoding="utf-8", errors="replace").splitlines())
        for p in (ROOT / "src").rglob("*")
        if p.suffix in (".py", ".pyx", ".c", ".h") and p.name != "_kernels_cy.c")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cfhyper" / "cli.py").is_file():
        print(f"error: no cfhyper sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import cfhyper
    from cfhyper import kernels

    if Path(cfhyper.__file__).resolve().parent != ROOT / "src" / "cfhyper":
        print(f"error: imported cfhyper from {cfhyper.__file__}", file=sys.stderr)
        return 2
    import spans  # imports cfhyper

    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = spans.Tracer()
    try:
        run = Run(args.workload, args.seed, workdir,
                  spans.Patch(tracer) if args.trace else None,
                  None if args.trace else args.seconds / SETUP_ROUNDS[args.workload])
        if args.trace:
            for _ in range(TRACED_CYCLES[args.workload]):
                run.cycle()
        else:
            while run.busy < args.seconds or len(run.times) < MIN_COMMANDS:
                run.cycle()
            run.setup_rounds(float("inf"))
            run.speed.tick()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(run.times)
    failures = run.failures
    broken: list[str] = []  # faults of the traced run as a whole
    metrics: dict[str, tuple[float, str]]
    times = run.times
    if args.trace == 0:
        def end_to_end(times: list[float], setup: list[float]) -> dict:
            return {
                "setup_s": (middle_mean(setup), "s"),
                "cmds_per_s": ((len(times) - len(failures)) / sum(times), "1/s"),
                "cmd_s_p50": (statistics.median(times), "s"),
                "cmd_s_p90": (statistics.quantiles(times, n=10)[8], "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }

        def scaled(times: list[float], spans: list[tuple[float, float]]):
            return [t * run.speed.factor(*span) for t, span in zip(times, spans)]

        times = scaled(run.times, run.spans)
        metrics = end_to_end(times, scaled(run.setup, run.setup_spans))
        probes = statistics.quantiles(run.speed.took(), n=4)
        extra = {"samples": {"cmd_s_p50": len(times), "cmd_s_p90": len(times),
                             "setup_s": len(run.setup)},
                 "as_measured": {k: round(v, 6) for k, (v, _) in end_to_end(
                     run.times, run.setup).items() if k != "peak_rss_mb"},
                 "probe_s_quartiles": [round(x, 6) for x in probes],
                 "probes": len(run.speed.at)}
    else:
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = (
            sum(run.times) / sum(run.plain) - 1, "ratio")
        gaps = spans.command_gaps(tracer, run.times)
        over = sum(abs(gap) > spans.GAP_SHARE * wall + spans.GAP_FLOOR_S
                   for gap, wall in zip(gaps, run.times))
        extra = {"self_time_gap": {
            "max_s": max(map(abs, gaps)),
            "max_share": max(abs(g) / w for g, w in zip(gaps, run.times)),
            "over": over}}
        if over:
            broken.append(f"the traced self times of {over} commands miss "
                          f"their wall time by more than {spans.GAP_SHARE} of "
                          f"it plus {spans.GAP_FLOOR_S} s")
        if (args.workload == "exact"
                and not metrics["kernels.solve_degree_constrained.calls"][0]):
            broken.append("traced exact run recorded no kernel calls")

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": kernels.backend_name(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commands": attempted,
        "cycles": run.cycles,
        "src_loc": src_lines(),
        **extra,
        "failed_ratio": len(failures) / attempted,
        "kinds": kind_summary(run.kinds, times),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    print(f"{'failed_ratio':<44} {len(failures) / attempted:>14.6g} ratio"
          f" ({len(failures)} of {attempted})")
    print("context " + json.dumps(context))
    for failure in broken + failures[:20]:
        print("FAILED " + failure, file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not broken,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures or broken else 0


if __name__ == "__main__":
    sys.exit(main())
