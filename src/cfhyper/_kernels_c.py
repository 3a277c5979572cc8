"""Compiled kernels: _kernels_c.c, called through ctypes.

Same API, constants and search trees as cfhyper._kernels_py, plus
parse_edges, a parser of hypergraph edge lines that declines all but
plain input (cfhyper.graph_io's parser is its reference). Importing
this module loads the C file's build from a per-user cache,
$XDG_CACHE_HOME/cfhyper (default ~/.cache/cfhyper), under a file name
keyed by the SHA-256 of the source, so later imports in any process load
it without compiling and an edited source is built anew. On a miss it is
compiled with the C compiler sysconfig names for the running interpreter,
written under a temporary name and renamed into place, so a concurrent
import never loads a half-written file. The import raises ImportError or
OSError when no build can be had; cfhyper.kernels then falls back to the
pure backend.

The searches and the edge passes take their edges as flatten() packs
them. The wrappers check array lengths; every C entry point checks the
ids and offsets it reads itself, and its wrapper raises ValueError when
one is out of range, as flatten and _int_array do past C int range. The
solve wrapper keeps allowed degrees in 0..m, which fit a C int, and C
ignores those past deg(v), which no search can meet. Numbers the search
cannot tell from a smaller one (a budget past 2**63 - 1, more colors than
vertices) are clamped, so results match the pure backend for every
input. No memory is sized by a color value: scan_edges renumbers colors
densely past len(colors) - 1.
"""

import ctypes
import gc
import hashlib
import os
import struct
from array import array
from itertools import accumulate, chain, pairwise
from operator import sub
from pathlib import Path
from typing import Iterable, Sequence

from ._kernels_py import (  # noqa: F401 (shared codes)
    BUDGET, CONFLICT_FREE, FEW_COLORS, FOUND, MAX_N, PROPER, UNSAT)

BACKEND_NAME = "compiled"

_SOURCE = Path(__file__).with_name("_kernels_c.c")
_LLONG_MAX = 2**63 - 1
_INT_MAX = 2**31 - 1
_BADINPUT = -2  # an edge, id or allowed degree out of range
_BADCOLOR = -3  # cfh_scan read a color it has no counter for


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
    """Load a build of _kernels_c.c and declare its seven entry points."""
    lib = ctypes.CDLL(str(path))
    i, ll, p = ctypes.c_int, ctypes.c_longlong, ctypes.c_void_p
    for fn, argtypes in ((lib.cfh_solve, [i, i, p, i, p, p, i, p, ll, p, p]),
                         (lib.cfh_color, [i, i, p, i, p, i, i, p, p]),
                         (lib.cfh_parse, [ctypes.c_char_p, ll, ll, i, i, i, p, p]),
                         (lib.cfh_scan, [i, p, i, p, i, p, i, i, i, p, p, p]),
                         (lib.cfh_incidence, [i, i, p, i, p, p, p]),
                         (lib.cfh_edge_degree, [i, i, p, i, p, p, i, p, p]),
                         (lib.cfh_components, [i, i, p, i, p, p])):
        fn.argtypes, fn.restype = argtypes, i
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


def solve_degree_constrained(n: int, eu: Sequence[int], ev: Sequence[int],
                             allowed: Sequence[Iterable[int]],
                             budget: int) -> tuple[int, list[int] | None, int]:
    """See cfhyper._kernels_py.solve_degree_constrained."""
    m = len(eu)
    if len(ev) != m or len(allowed) != n:
        raise ValueError("eu and ev need one entry per edge, allowed one per vertex")
    ends, ids = _edge_arrays(n, flatten(tuple(zip(eu, ev))))
    kept = [[t for t in ts if 0 <= t <= m] for ts in allowed]  # C drops those past deg(v)
    aptr, avals = flatten(kept)
    selection, nodes = array("i", [0]) * m, array("q", [0])
    if not -1 <= budget <= _LLONG_MAX:  # no search tells these from -1 or 2**63 - 1
        budget = -1 if budget < 0 else _LLONG_MAX
    status = _lib.cfh_solve(n, m, ends.buffer_info()[0], len(ids), ids.buffer_info()[0],
                            aptr.buffer_info()[0], len(avals), avals.buffer_info()[0],
                            budget, nodes.buffer_info()[0], selection.buffer_info()[0])
    if status == _BADINPUT:
        raise ValueError("solve_degree_constrained: an edge or vertex id out of range")
    if status < 0:
        raise MemoryError("solve_degree_constrained: out of memory")
    return (status, selection.tolist() if status == FOUND else None, nodes[0])


def color_search(n: int, edges: Sequence[Sequence[int]], k: int,
                 mode: int) -> tuple[list[int] | None, int]:
    """See cfhyper._kernels_py.color_search."""
    ends, ids = _edge_arrays(n, flatten(edges))
    colors, nodes = array("i", [0]) * n, array("q", [0])
    found = _lib.cfh_color(n, len(ends) - 1, ends.buffer_info()[0], len(ids),
                           ids.buffer_info()[0], max(0, min(k, n)), int(mode == PROPER),
                           colors.buffer_info()[0], nodes.buffer_info()[0])
    if found == _BADINPUT:
        raise ValueError("color_search: an edge or vertex id out of range")
    if found < 0:
        raise MemoryError("color_search: out of memory")
    return (colors.tolist() if found else None, nodes[0])


def parse_edges(data: bytes, n: int, m: int, start: int = 0) -> tuple[array, array] | None:
    """The m edge lines in data[start:], a hypergraph file after its header.

    Returns (ends, ids): edge i is ids[ends[i]:ends[i + 1]], sorted, with
    ends[0] == 0. Returns None, declining, on anything but m lines of
    distinct ids in 1..n in plain ASCII decimal, separated by spaces or
    tabs and followed by blank lines at most (see cfh_parse).
    """
    cap = (len(data) - start + 1) // 2  # an id takes a digit and, but the last, a separator
    if not (0 <= start <= len(data) and 0 <= n <= _INT_MAX and 0 <= m <= _INT_MAX
            and cap < _INT_MAX):
        return None
    if data.find(b"#", start) >= 0 or data.find(b"\r", start) >= 0:
        return None  # comments, CR line ends: no buffers, no scan
    ends = array("i", [0]) * (min(m, cap) + 1)
    ids = array("i", [0]) * cap
    total = _lib.cfh_parse(data, start, len(data), n, m, cap,
                           ends.buffer_info()[0], ids.buffer_info()[0])
    if total < 0:
        return None
    del ids[total:]
    return ends, ids


def _int_array(values: Iterable[int]) -> array:
    """``values`` as a C int array, itself when it already is one. Raises
    ValueError for a value past C int range."""
    try:
        return values if isinstance(values, array) and values.typecode == "i" else array("i", values)
    except OverflowError:
        raise ValueError("a value past C int range") from None


def flatten(edges: Sequence[Sequence[int]]) -> tuple[array, array]:
    """The layout the edge passes and searches read here: C int arrays (ends,
    ids), edge e being ids[ends[e]:ends[e + 1]], as parse_edges also returns
    them. Raises ValueError for an id or edge end past C int range."""
    try:
        ends = array("i", struct.pack(f"{len(edges) + 1}i", 0, *accumulate(map(len, edges))))
        return ends, array("i", struct.pack(f"{ends[-1]}i", *chain.from_iterable(edges)))
    except struct.error:
        raise ValueError("flatten: an id or edge end past C int range") from None


def unflatten(flat: tuple[Sequence[int], Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """flatten()'s inverse, the edge tuples."""
    ends, ids = flat[0], flat[1].tolist()
    enabled = gc.isenabled()
    gc.disable()  # the tuples hold no cycles: the collector would only rescan them
    try:
        return tuple(tuple(ids[i:j]) for i, j in pairwise(ends))
    finally:
        if enabled:
            gc.enable()


def edge_sizes(flat: tuple[Sequence[int], Sequence[int]]) -> Iterable[int]:
    """See cfhyper._kernels_py.edge_sizes."""
    return map(sub, flat[0][1:], flat[0])


def edge_at(flat: tuple[Sequence[int], Sequence[int]], e: int) -> tuple[int, ...]:
    """See cfhyper._kernels_py.edge_at."""
    return tuple(flat[1][flat[0][e]:flat[0][e + 1]])


def scan_edges(flat: tuple[Sequence[int], Sequence[int]], colors: Sequence[int], mode: int,
               t: int, which: Iterable[int] | None = None) -> list[int]:
    """See cfhyper._kernels_py.scan_edges."""
    ends, ids = flat
    ends, ids, picked = _int_array(ends or [0]), _int_array(ids), _int_array(which or ())
    nwhich = -1 if which is None else len(picked)
    cnt = array("i", [0]) * len(colors)  # an aborted scan leaves it zeroed
    out = array("i", [0]) * (len(ends) - 1 if which is None else nwhich)

    def scan(cs: array) -> int:
        return _lib.cfh_scan(
            len(ends) - 1, ends.buffer_info()[0], len(ids), ids.buffer_info()[0], len(cs),
            cs.buffer_info()[0], int(mode != CONFLICT_FREE), max(-1, min(t, _INT_MAX)),
            nwhich, picked.buffer_info()[0], cnt.buffer_info()[0], out.buffer_info()[0])

    try:
        failed = scan(_int_array(colors))
    except ValueError:  # a color past C int range
        failed = _BADCOLOR
    if failed == _BADCOLOR:  # only equality matters: renumber densely
        rank = {c: i for i, c in enumerate(dict.fromkeys(colors))}
        failed = scan(array("i", map(rank.__getitem__, colors)))
    if failed < 0:
        raise ValueError("scan_edges: an edge or vertex id out of range")
    return out[:failed].tolist()


def _edge_arrays(n: int, flat: tuple[Sequence[int], Sequence[int]]) -> tuple[array, array]:
    """``flat`` as C int arrays, once the id count n, ids 0..n-1 of a
    hypergraph's 0..MAX_N, is known to be in range."""
    if not 0 <= n <= MAX_N + 1:
        raise ValueError(f"id count {n} outside 0..{MAX_N + 1}")
    return _int_array(flat[0] or [0]), _int_array(flat[1])


def incidence(n: int, flat: tuple[Sequence[int], Sequence[int]]) -> tuple[array, array]:
    """See cfhyper._kernels_py.incidence."""
    ends, ids = _edge_arrays(n, flat)
    vptr, vedges = array("i", [0]) * (n + 1), array("i", [0]) * max(0, ends[-1] - ends[0])
    if _lib.cfh_incidence(n, len(ends) - 1, ends.buffer_info()[0], len(ids),
                          ids.buffer_info()[0], vptr.buffer_info()[0], vedges.buffer_info()[0]):
        raise ValueError("incidence: an edge or vertex id out of range")
    return vptr, vedges


def edge_degree(n: int, flat: tuple[Sequence[int], Sequence[int]],
                incidence: tuple[Sequence[int], Sequence[int]]) -> int:
    """See cfhyper._kernels_py.edge_degree."""
    (ends, ids), (vptr, vedges) = _edge_arrays(n, flat), map(_int_array, incidence)
    if len(vptr) != n + 1:
        raise ValueError(f"edge_degree: {len(vptr)} row offsets for {n} vertices")
    stamp = array("i", [0]) * (len(ends) - 1)
    best = _lib.cfh_edge_degree(n, len(ends) - 1, ends.buffer_info()[0], len(ids),
                                ids.buffer_info()[0], vptr.buffer_info()[0], len(vedges),
                                vedges.buffer_info()[0], stamp.buffer_info()[0])
    if best < 0:
        raise ValueError("edge_degree: an edge, vertex id or incidence entry out of range")
    return best


def components(n: int, flat: tuple[Sequence[int], Sequence[int]]) -> array:
    """See cfhyper._kernels_py.components."""
    ends, ids = _edge_arrays(n, flat)
    label = array("i", [0]) * n
    if _lib.cfh_components(n, len(ends) - 1, ends.buffer_info()[0], len(ids),
                           ids.buffer_info()[0], label.buffer_info()[0]) < 0:
        raise ValueError("components: an edge or vertex id out of range")
    return label
