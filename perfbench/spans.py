"""Spans and counters recorded around cfhyper's layers from outside the package.

Patch.apply() replaces every public function of each layer module with a
wrapper that records a span (name, start, end, parent span, command id),
and rebinds every module attribute that held the original, so functions
imported by name (``from .model import stats``) are wrapped too. A
layer's self time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import importlib
import inspect
import random
import types
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

from cfhyper import cli, kernels

LAYERS = ("graph_io", "model", "verify", "greedy", "lll", "four_uniform",
          "factors", "exact_cf")
KERNELS = ("solve_degree_constrained", "color_search")
# re-verification is part of find_ab_factor's own work, not a layer below it
UNWRAPPED = {"factors.factor_defects"}

Span = list  # [name, start, end, parent index or -1, command id]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.command = -1
        self.draws = 0

    def wrap(self, name: str, fn: Callable,
             count: Callable[[Any, tuple, Any], None] | None = None) -> Callable:
        spans, stack = self.spans, self.stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          self.command])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


# --- counters kept at the layer boundaries ---------------------------------

def _load_bytes(t: Tracer, args: tuple, result: Any) -> None:
    t.counts["graph_io.load.bytes"] += len(args[0])


def _edges_checked(t: Tracer, args: tuple, result: Any) -> None:
    t.counts["verify.edges_checked"] += args[0].m


def _lll(t: Tracer, args: tuple, result: Any) -> None:
    h = args[0]
    if result is None:
        t.counts["lll.cap_hits"] += 1
    if t.draws:
        # n initial draws, then one per vertex of each resampled edge
        t.counts["lll.rounds"] += (t.draws - h.n) // len(h.edges[0])
    t.draws = 0


def _solve(t: Tracer, args: tuple, result: Any) -> None:
    status, _, nodes = result
    t.counts["kernels.solve_degree_constrained.nodes"] += nodes
    t.counts["kernels.solve_degree_constrained.found"] += status == kernels.FOUND
    t.counts["kernels.solve_degree_constrained.zero_node_calls"] += nodes == 0


def _color(t: Tracer, args: tuple, result: Any) -> None:
    t.counts["kernels.color_search.nodes"] += result[1]


COUNTERS = {
    "graph_io.load_hypergraph": _load_bytes,
    "graph_io.load_coloring": _load_bytes,
    "graph_io.load_factor": _load_bytes,
    "verify.is_conflict_free": _edges_checked,
    "verify.is_proper": _edges_checked,
    "verify.strong_condition": _edges_checked,
    "lll.randomized_cf_coloring": _lll,
    "kernels.solve_degree_constrained": _solve,
    "kernels.color_search": _color,
}


class Patch:
    """Wrappers around cfhyper's layers that can be switched on and off."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        modules = {name: importlib.import_module(f"cfhyper.{name}")
                   for name in LAYERS}
        targets: list[tuple[str, Callable]] = [
            (f"{name}.{attr}", obj)
            for name, mod in modules.items()
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__
            and not attr.startswith("_") and f"{name}.{attr}" not in UNWRAPPED
        ]
        targets += [(f"kernels.{attr}", getattr(kernels, attr)) for attr in KERNELS]
        wrapped = {id(fn): tracer.wrap(name, fn, COUNTERS.get(name))
                   for name, fn in targets}
        # (module, attribute, original, replacement)
        self.swaps: list[tuple[types.ModuleType, str, Any, Any]] = [
            (mod, attr, obj, wrapped[id(obj)])
            for mod in [*modules.values(), kernels, cli]
            for attr, obj in vars(mod).items()
            # compiled kernels are callables but not Python functions
            if callable(obj) and id(obj) in wrapped
        ]

        class CountingRandom(random.Random):
            def randint(self, a: int, b: int) -> int:
                tracer.draws += 1
                return super().randint(a, b)

        lll = modules["lll"]
        self.swaps.append((lll, "random", lll.random,
                           types.SimpleNamespace(Random=CountingRandom)))
        self.swaps.append((cli, "main", cli.main,
                           tracer.wrap("cli.main", cli.main)))

    def apply(self) -> None:
        for mod, attr, _, replacement in self.swaps:
            setattr(mod, attr, replacement)

    def restore(self) -> None:
        for mod, attr, original, _ in self.swaps:
            setattr(mod, attr, original)


# --- per-layer metrics ---------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each as (value, unit)."""
    own = tracer.self_times()
    calls: Counter[str] = Counter()
    self_s: defaultdict[str, float] = defaultdict(float)
    candidates = 0
    for span, own_s in zip(tracer.spans, own):
        name, parent = span[0], span[3]
        module, _, func = name.partition(".")
        group = f"{module}.{func.split('_')[0]}" if module == "graph_io" else name
        for key in {module, name, group}:
            calls[key] += 1
            self_s[key] += own_s
        if (name == "model.remove_vertices" and parent >= 0
                and tracer.spans[parent][0] == "four_uniform.safe_separator"):
            candidates += 1
    c = tracer.counts
    solve = "kernels.solve_degree_constrained"
    solve_calls = calls[solve]
    count = lambda key: (float(calls[key]), "count")
    seconds = lambda key: (self_s[key], "s")
    counter = lambda key: (float(c[key]), "count")
    return {
        "cli.self_s": seconds("cli"),
        "graph_io.load.calls": count("graph_io.load"),
        "graph_io.load.self_s": seconds("graph_io.load"),
        "graph_io.load.bytes": (float(c["graph_io.load.bytes"]), "bytes"),
        "graph_io.save.self_s": seconds("graph_io.save"),
        "model.stats.calls": count("model.stats"),
        "model.stats.self_s": seconds("model.stats"),
        "model.remove_vertices.calls": count("model.remove_vertices"),
        "verify.self_s": seconds("verify"),
        "verify.edges_checked": counter("verify.edges_checked"),
        "greedy.self_s": seconds("greedy"),
        "lll.self_s": seconds("lll"),
        "lll.rounds": counter("lll.rounds"),
        "lll.cap_hits": counter("lll.cap_hits"),
        "four_uniform.safe_separator.calls": count("four_uniform.safe_separator"),
        "four_uniform.safe_separator.self_s": seconds("four_uniform.safe_separator"),
        "four_uniform.safe_separator.candidates": (float(candidates), "count"),
        "four_uniform.elimination_ordering.self_s":
            seconds("four_uniform.elimination_ordering"),
        "four_uniform.three_color_4uniform.self_s":
            seconds("four_uniform.three_color_4uniform"),
        "four_uniform.characterize_4uniform.self_s":
            seconds("four_uniform.characterize_4uniform"),
        "factors.parity_precheck.self_s": seconds("factors.parity_precheck"),
        "factors.find_ab_factor.calls": count("factors.find_ab_factor"),
        "factors.find_ab_factor.self_s": seconds("factors.find_ab_factor"),
        f"{solve}.calls": count(solve),
        f"{solve}.nodes": counter(f"{solve}.nodes"),
        f"{solve}.self_s": seconds(solve),
        f"{solve}.found_ratio": (
            c[f"{solve}.found"] / solve_calls if solve_calls else 0.0, "ratio"),
        f"{solve}.zero_node_calls": counter(f"{solve}.zero_node_calls"),
        "kernels.color_search.calls": count("kernels.color_search"),
        "kernels.color_search.nodes": counter("kernels.color_search.nodes"),
        "kernels.color_search.self_s": seconds("kernels.color_search"),
        "exact_cf.chi_cf_exact.self_s": seconds("exact_cf.chi_cf_exact"),
    }


# A command's self times add up to its cli.main span. The run's own timing
# around cli.main also holds the root wrapper's bookkeeping, a few
# microseconds, and now and then a garbage collection it sets off.
GAP_SHARE = 0.02
GAP_FLOOR_S = 0.002


def command_gaps(tracer: Tracer, wall: list[float]) -> list[float]:
    """Per command, its wall time as the run measured it, outside every
    wrapper, minus the sum of its spans' self times."""
    total: defaultdict[int, float] = defaultdict(float)
    for span, own_s in zip(tracer.spans, tracer.self_times()):
        total[span[4]] += own_s
    return [seconds - total[k] for k, seconds in enumerate(wall)]
