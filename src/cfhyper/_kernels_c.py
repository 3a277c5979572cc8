"""Compiled search kernels: _kernels_c.c, called through ctypes.

Same API, constants and search trees as cfhyper._kernels_py. Importing
this module loads the C file's build from a per-user cache,
$XDG_CACHE_HOME/cfhyper (default ~/.cache/cfhyper), under a file name
keyed by the SHA-256 of the source, so later imports in any process load
it without compiling and an edited source is built anew. On a miss it is
compiled with the C compiler sysconfig names for the running interpreter,
written under a temporary name and renamed into place, so a concurrent
import never loads a half-written file. The import raises ImportError or
OSError when no build can be had; cfhyper.kernels then falls back to the
pure backend.

The wrappers check what the C code trusts: array lengths and vertex ids
in [0, n). Numbers the search cannot tell from a smaller one (a budget
past 2**63 - 1, a target degree past a C int, more colors than vertices)
are clamped, so results match the pure backend for every input.
"""

import ctypes
import hashlib
import os
from array import array
from itertools import accumulate
from pathlib import Path
from typing import Sequence

from ._kernels_py import BUDGET, CONFLICT_FREE, FOUND, PROPER, UNSAT  # noqa: F401

BACKEND_NAME = "compiled"

_SOURCE = Path(__file__).with_name("_kernels_c.c")
_LLONG_MAX = 2**63 - 1


def _build(target: Path) -> None:
    """Compile _kernels_c.c into the shared library ``target``."""
    # imported only to build: subprocess alone adds ~0.6 MB resident
    import shlex
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    ldshared = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    if not ldshared:
        raise ImportError("sysconfig names no C compiler (LDSHARED is unset)")
    if shutil.which(ldshared[0]) is None:
        raise ImportError(f"C compiler {ldshared[0]!r} not found on PATH")
    ccshared = shlex.split(sysconfig.get_config_var("CCSHARED") or "")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{target.name}.", dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run([*ldshared, *ccshared, "-O2", str(_SOURCE), "-o", tmp],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise ImportError(
                f"compiling {_SOURCE.name} failed (exit {proc.returncode}): "
                f"{proc.stderr.strip()[-2000:]}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _bind(path: str | Path) -> ctypes.CDLL:
    """Load a build of _kernels_c.c and declare its two entry points."""
    lib = ctypes.CDLL(str(path))
    i, ll, p = ctypes.c_int, ctypes.c_longlong, ctypes.c_void_p
    lib.cfh_solve.argtypes = [i, i, p, ll, p]
    lib.cfh_color.argtypes = [i, i, i, i, p, p]
    lib.cfh_solve.restype = lib.cfh_color.restype = i
    return lib


def _library() -> Path:
    """The cached build of _kernels_c.c, compiled first if it is missing."""
    cache = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache):
        cache = Path.home() / ".cache"
    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()
    target = Path(cache, "cfhyper", f"_kernels_c-{digest}.so")
    if not target.is_file():
        _build(target)
    return target


_lib = _bind(_library())


def _check_ids(ids: list[int], n: int) -> None:
    if ids and (min(ids) < 0 or max(ids) >= n):
        raise ValueError(f"vertex id outside 0..{n - 1}")


def solve_degree_constrained(n: int, eu: Sequence[int], ev: Sequence[int], lo: Sequence[int],
                             hi: Sequence[int], budget: int) -> tuple[int, list[int] | None, int]:
    """See cfhyper._kernels_py.solve_degree_constrained."""
    m = len(eu)
    if len(ev) != m or len(lo) != n or len(hi) != n:
        raise ValueError("eu and ev need one entry per edge, lo and hi one per vertex")
    ends = [*eu, *ev]
    _check_ids(ends, n)
    try:
        data = array("i", [*ends, *lo, *hi])
    except OverflowError:  # past a C int, a target is as unreachable as any above m
        data = array("i", [*ends, *(min(max(t, -1), m + 1) for t in (*lo, *hi))])
    data.frombytes(bytes(m * data.itemsize))  # the selection goes here
    nodes = array("q", [0])
    if not -1 <= budget <= _LLONG_MAX:  # no search tells these from -1 or 2**63 - 1
        budget = -1 if budget < 0 else _LLONG_MAX
    status = _lib.cfh_solve(n, m, data.buffer_info()[0], budget, nodes.buffer_info()[0])
    if status < 0:
        raise MemoryError("solve_degree_constrained: out of memory")
    return (status, data[len(data) - m:].tolist() if status == FOUND else None, nodes[0])


def color_search(n: int, edges: Sequence[Sequence[int]], k: int,
                 mode: int) -> tuple[list[int] | None, int]:
    """See cfhyper._kernels_py.color_search."""
    everts = [v for edge in edges for v in edge]
    _check_ids(everts, n)
    data = array("i", [*accumulate(map(len, edges), initial=0), *everts])
    data.frombytes(bytes(n * data.itemsize))  # the colors go here
    nodes = array("q", [0])
    found = _lib.cfh_color(n, len(edges), max(0, min(k, n)), int(mode == PROPER),
                           data.buffer_info()[0], nodes.buffer_info()[0])
    if found < 0:
        raise MemoryError("color_search: out of memory")
    return (data[len(data) - n:].tolist() if found else None, nodes[0])
