"""Ground-truth checkers for colorings.

A coloring is conflict-free when every edge has a vertex whose color appears
exactly once inside that edge, proper when no edge is monochromatic, and
satisfies the strong condition when every edge of an r-uniform hypergraph
carries more than r/2 distinct colors (which forces a uniquely colored
vertex by pigeonhole).

Each checker is one kernels.scan_edges pass over the hypergraph's
``flat`` edges; the pure backend's scan_edges is the per-edge reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from ._kernels_py import counter
from .model import Hypergraph, HypergraphError


@dataclass(frozen=True)
class Coloring:
    """Total assignment of positive-integer colors to vertices 1..n."""

    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        for v, c in enumerate(self.colors, start=1):
            if c < 1:
                raise HypergraphError(f"vertex {v} has non-positive color {c}")

    @property
    def palette(self) -> int:
        """Palette size: the largest color used (0 when there are no vertices)."""
        return max(self.colors, default=0)

    def color(self, v: int) -> int:
        return self.colors[v - 1]


def _check_lengths(h: Hypergraph, c: Coloring) -> None:
    if len(c.colors) != h.n:
        raise HypergraphError(
            f"coloring has {len(c.colors)} entries for {h.n} vertices")


def _failing(h: Hypergraph, c: Coloring, mode: int, t: int) -> list[int]:
    """The 1-based indices of the edges that fail kernels.scan_edges' test."""
    _check_lengths(h, c)
    return [e + 1 for e in kernels.scan_edges(h.flat, (0, *c.colors), mode, t)]


def unique_color_witness(h: Hypergraph, c: Coloring, edge_index: int) -> int | None:
    """Smallest vertex of the edge whose color occurs exactly once in it."""
    _check_lengths(h, c)
    edge = h.edge(edge_index)
    colors = [c.colors[v - 1] for v in edge]
    counts = list(map(counter(colors), colors))  # edges are sorted: first is smallest
    return edge[counts.index(1)] if 1 in counts else None


def is_conflict_free(h: Hypergraph, c: Coloring) -> list[int]:
    """Return the sorted indices of edges without a uniquely colored vertex.

    An empty list means the coloring is conflict-free.
    """
    return _failing(h, c, kernels.CONFLICT_FREE, 0)


def is_proper(h: Hypergraph, c: Coloring) -> list[int]:
    """Return the sorted indices of monochromatic edges (size-1 edges always are)."""
    return _failing(h, c, kernels.FEW_COLORS, 1)


def strong_condition(h: Hypergraph, c: Coloring) -> list[int]:
    """Return the indices of edges with at most r/2 distinct colors.

    Only defined for r-uniform hypergraphs. An empty result implies the
    coloring is conflict-free: with more than r/2 distinct colors among r
    vertices, some color must appear exactly once.
    """
    _check_lengths(h, c)
    if h.m and h.uniform_r is None:
        raise HypergraphError("strong condition requires a uniform hypergraph")
    return _failing(h, c, kernels.FEW_COLORS, (h.uniform_r or 0) // 2)
