"""Greedy conflict-free coloring via strongly independent set peeling.

A vertex set is strongly independent when every edge contains at most one
of its members. Peeling a maximal such set together with all incident
edges lowers the maximum degree by at least one, so repeated peeling colors
any hypergraph with at most max_degree + 1 colors, each layer getting one
fresh color.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .model import Hypergraph, HypergraphError, _incidence_rows, _induced
from .verify import Coloring


@dataclass(frozen=True)
class StronglyIndependentSet:
    """Vertices meeting every edge of the host at most once."""

    members: frozenset[int]


def maximal_strongly_independent_set(h: Hypergraph) -> StronglyIndependentSet:
    """Greedy maximal strongly independent set, built by ascending vertex id."""
    members = _greedy_layer(list(range(1, h.n + 1)), _incidence_rows(h), [True] * h.m)
    return StronglyIndependentSet(frozenset(members))


def _greedy_layer(
    alive_vertices: list[int],
    incident: list[list[int]],
    alive_edge: list[bool],
) -> list[int]:
    """One greedy peel over the still-alive part of the hypergraph."""
    taken = [0] * len(alive_edge)  # members already inside each edge
    members = []
    for v in alive_vertices:
        if all(taken[e] == 0 for e in incident[v] if alive_edge[e]):
            members.append(v)
            for e in incident[v]:
                if alive_edge[e]:
                    taken[e] += 1
    return members


def _peel_layers(
    h: Hypergraph, stop_at_degree: int
) -> tuple[list[list[int]], list[int], list[bool]]:
    """Peel strongly independent layers until max degree <= stop_at_degree.

    Returns (layers, surviving vertices, surviving flags of edges 1..m
    after a True at 0). Each layer removal also removes every edge incident
    to the layer; every removed edge contains exactly one layer member,
    which the fresh layer color then makes uniquely colored.
    """
    incident = _incidence_rows(h)
    live = [len(edges_at_v) for edges_at_v in incident]  # live edges per vertex
    alive_edge = [True] * h.m
    alive_vertices = list(range(1, h.n + 1))
    layers: list[list[int]] = []
    # a peeled vertex loses all its edges, so max(live) is over the survivors
    while alive_vertices and max(live) > stop_at_degree:
        layer = _greedy_layer(alive_vertices, incident, alive_edge)
        layers.append(layer)
        for v in layer:
            for e in incident[v]:
                if alive_edge[e]:
                    alive_edge[e] = False
                    for w in h.edges[e]:
                        live[w] -= 1
        in_layer = set(layer)
        alive_vertices = [v for v in alive_vertices if v not in in_layer]
    return layers, alive_vertices, [True, *alive_edge]


def greedy_cf_coloring(h: Hypergraph) -> Coloring:
    """Conflict-free coloring with at most max_degree + 1 colors.

    Layer i of the peeling gets color i and the vertices left once no edge
    remains get the next color.
    """
    layers, _, _ = _peel_layers(h, 0)
    colors = [len(layers) + 1] * (h.n + 1)
    for color, layer in enumerate(layers, start=1):
        for v in layer:
            colors[v] = color
    return Coloring(tuple(colors[1:]))


def peel_then_solve(
    h: Hypergraph,
    target_degree: int,
    base: Callable[[Hypergraph], Coloring],
) -> Coloring:
    """Peel layers until max degree <= target_degree, then defer to ``base``.

    ``base`` must color any hypergraph of max degree <= target_degree with
    at most target_degree colors; each peeled layer then gets one fresh
    color on top, for max(max_degree(h), target_degree) colors in total.
    The peeled part of the instance is passed to ``base`` with surviving
    vertices relabeled densely.
    """
    if target_degree < 0:
        raise HypergraphError(f"target degree must be >= 0, got {target_degree}")
    layers, kept_vertices, _ = _peel_layers(h, target_degree)
    # an edge survives the peel exactly when all its vertices do
    rest = _induced(h, [kept_vertices])[0] if layers else h
    base_coloring = base(rest)
    allowed = max(target_degree, 1) if rest.n else 0
    if base_coloring.palette > allowed:
        raise HypergraphError(
            f"base solver used {base_coloring.palette} colors, "
            f"more than the guaranteed {allowed}")

    colors = [0] * (h.n + 1)
    for v, c in zip(kept_vertices, base_coloring.colors):
        colors[v] = c
    next_free = max(base_coloring.palette, 0)
    for layer in reversed(layers):
        next_free += 1
        for v in layer:
            colors[v] = next_free
    return Coloring(tuple(colors[1:]))
