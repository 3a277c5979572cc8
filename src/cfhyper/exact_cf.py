"""Brute-force chromatic oracles.

Exact conflict-free and proper chromatic numbers by complete backtracking;
the ground truth the algorithmic modules are validated against. Intended
scale is roughly n <= 20 (more when edges prune well); vertex order is the
input order and ties are broken toward smaller colors, so results are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .model import Hypergraph
from .verify import Coloring


@dataclass(frozen=True)
class ChiCfResult:
    """Exact chromatic value with an optimal witness and search effort."""

    chi_cf: int
    witness: Coloring
    nodes: int


def _search(h: Hypergraph, k: int, mode: int) -> tuple[Coloring | None, int]:
    edges0 = [tuple(v - 1 for v in e) for e in h.edges]
    raw, nodes = kernels.color_search(h.n, edges0, k, mode)
    if raw is None:
        return None, nodes
    return Coloring(tuple(raw)), nodes


def cf_colorable(h: Hypergraph, k: int) -> Coloring | None:
    """A conflict-free coloring with at most k colors, or None if impossible."""
    if k < 1:
        raise ValueError(f"palette size must be >= 1, got {k}")
    return _search(h, k, kernels.CONFLICT_FREE)[0]


def proper_colorable(h: Hypergraph, k: int) -> Coloring | None:
    """A proper coloring with at most k colors, or None if impossible."""
    if k < 1:
        raise ValueError(f"palette size must be >= 1, got {k}")
    return _search(h, k, kernels.PROPER)[0]


def _chi_exact(h: Hypergraph, k_max: int, mode: int) -> ChiCfResult | None:
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    total = 0
    for k in range(1, k_max + 1):
        witness, nodes = _search(h, k, mode)
        total += nodes
        if witness is not None:
            return ChiCfResult(chi_cf=k, witness=witness, nodes=total)
    return None


def chi_cf_exact(h: Hypergraph, k_max: int | None = None) -> ChiCfResult | None:
    """Smallest palette admitting a conflict-free coloring, with witness.

    Searches k = 1..k_max and returns None when every palette up to k_max
    fails. The default cap max_degree+1 always suffices, so the default
    call never returns None.
    """
    if k_max is None:
        k_max = h.max_degree + 1
    return _chi_exact(h, k_max, kernels.CONFLICT_FREE)


def chi_proper_exact(h: Hypergraph, k_max: int | None = None) -> ChiCfResult | None:
    """Smallest palette admitting a proper coloring, with witness.

    None when no palette up to k_max works; with size-1 edges present no
    proper coloring exists at all. The default cap n covers every
    colorable instance.
    """
    if k_max is None:
        k_max = max(h.n, 1)
    return _chi_exact(h, k_max, kernels.PROPER)
