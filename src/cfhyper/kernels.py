"""Kernel backend selection.

Two backends implement the search kernels: the pure-Python reference
cfhyper._kernels_py and its compiled twin cfhyper._kernels_c, plain C
that is built on first import and loaded through ctypes (see that
module for the build and its cache). When the compiled kernels cannot be
had (no compiler, an unwritable cache, a compile error) the pure backend
is used. Set CFHYPER_BACKEND=pure to select it without attempting a
build, or CFHYPER_BACKEND=compiled to require the compiled one; the
latter raises ImportError stating why it is unavailable. Any other
nonempty value fails the import too. Both backends explore identical
search trees; tests assert verdict-, witness-, and node-count-level
agreement. Both also have four edge passes with equal results: scan_edges,
the coloring checks of cfhyper.verify and cfhyper.lll; incidence, the
package's one builder of vertex-to-edge lists (Hypergraph.incidence caches
it); edge_degree and components, the statistics stats() pays most for.
They read edges in the layout their backend's flatten() gives, which
Hypergraph.flat caches: C int arrays (ends, ids) on the compiled backend,
the edge tuples themselves on the pure one, whose loops run fastest over them.
Parsed hypergraphs read it through flatten's inverse unflatten, edge_sizes and edge_at.
Every compiled entry point checks the ids it reads and raises ValueError
for one out of range; MAX_N, the largest vertex count a Hypergraph may
have, keeps the ids it passes within C int range.

The compiled backend also has parse_edges, which cfhyper.graph_io offers
hypergraph files before its own parser. On the pure backend it is None
and graph_io's parser reads every file.
"""

from __future__ import annotations

import functools
import os
from types import ModuleType

from . import _kernels_py
from ._kernels_py import (  # noqa: F401 (shared codes)
    BUDGET, CONFLICT_FREE, FEW_COLORS, FOUND, MAX_N, PROPER, UNSAT)


@functools.cache
def _compiled() -> tuple[ModuleType | None, str]:
    """The compiled kernels, or None and the reason they are unavailable."""
    try:
        from . import _kernels_c
    except (ImportError, OSError, RuntimeError) as exc:  # RuntimeError: no home directory
        return None, str(exc) or type(exc).__name__
    return _kernels_c, ""


_choice = os.environ.get("CFHYPER_BACKEND", "").strip().lower()
if _choice == "pure":
    _impl: ModuleType = _kernels_py
elif _choice in ("", "compiled"):
    _c, _why = _compiled()
    if _c is None and _choice == "compiled":
        raise ImportError(
            f"CFHYPER_BACKEND=compiled but the compiled kernels are "
            f"unavailable: {_why}; use CFHYPER_BACKEND=pure")
    _impl = _c or _kernels_py
else:
    raise ImportError(
        f"unknown CFHYPER_BACKEND value {_choice!r}; use pure or compiled")

solve_degree_constrained = _impl.solve_degree_constrained
color_search = _impl.color_search
flatten = _impl.flatten
unflatten = _impl.unflatten
edge_sizes = _impl.edge_sizes
edge_at = _impl.edge_at
scan_edges = _impl.scan_edges
incidence = _impl.incidence
edge_degree = _impl.edge_degree
components = _impl.components
parse_edges = getattr(_impl, "parse_edges", None)


def backend_name() -> str:
    """Name of the active backend: 'compiled' or 'pure'."""
    return _impl.BACKEND_NAME


def available_backends() -> dict[str, ModuleType]:
    """All kernel backends that can be loaded, keyed by name.

    Builds the compiled kernels if needed, also when CFHYPER_BACKEND=pure
    kept the import from doing so.
    """
    out: dict[str, ModuleType] = {"pure": _kernels_py}
    compiled, _ = _compiled()
    if compiled is not None:
        out["compiled"] = compiled
    return out
