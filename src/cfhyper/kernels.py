"""Search-kernel backend selection.

Two backends implement the kernels: the pure-Python reference
cfhyper._kernels_py and its compiled twin cfhyper._kernels_c, plain C
that is built on first import and loaded through ctypes (see that
module for the build and its cache). When the compiled kernels cannot be
had (no compiler, an unwritable cache, a compile error) the pure backend
is used. Set CFHYPER_BACKEND=pure to select it without attempting a
build, or CFHYPER_BACKEND=compiled to require the compiled one; the
latter raises ImportError stating why it is unavailable. Both backends
explore identical search trees; tests assert verdict-, witness-, and
node-count-level agreement.
"""

from __future__ import annotations

import functools
import os
from types import ModuleType

from . import _kernels_py
from ._kernels_py import BUDGET, CONFLICT_FREE, FOUND, PROPER, UNSAT  # noqa: F401 (shared codes)


@functools.cache
def _compiled() -> tuple[ModuleType | None, str]:
    """The compiled kernels, or None and the reason they are unavailable."""
    try:
        from . import _kernels_c
    except (ImportError, OSError, RuntimeError) as exc:  # RuntimeError: no home directory
        return None, str(exc) or type(exc).__name__
    return _kernels_c, ""


_choice = os.environ.get("CFHYPER_BACKEND", "").strip().lower()
if _choice in ("pure", "python"):
    _impl: ModuleType = _kernels_py
elif _choice in ("", "auto", "compiled"):
    _c, _why = _compiled()
    if _c is None and _choice == "compiled":
        raise ImportError(
            f"CFHYPER_BACKEND=compiled but the compiled kernels are "
            f"unavailable: {_why}; use CFHYPER_BACKEND=pure")
    _impl = _c or _kernels_py
else:
    raise ImportError(f"unknown CFHYPER_BACKEND value {_choice!r}")

solve_degree_constrained = _impl.solve_degree_constrained
color_search = _impl.color_search


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
