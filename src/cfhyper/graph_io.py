"""Text formats for hypergraphs, colorings, and factors.

All three formats are UTF-8 text with '#' comment lines:

* hypergraph: header ``hypergraph <n> <m>`` followed by m lines, each the
  space-separated 1-based vertex ids of one edge (2-vertex edges for graphs);
* coloring: header ``coloring <n>`` followed by n whitespace-separated
  positive integers, the i-th being the color of vertex i;
* factor: header ``factor <m>`` (m is the host graph's edge count) followed
  by the whitespace-separated 1-based indices of selected edges.

Saving is canonical: ``load(save(x)) == x`` at field level.

The Python parsers here are the reference and raise every ParseError and
HypergraphError. On the compiled backend load_hypergraph first offers the
file to kernels.parse_edges, which returns the same edges or declines; it
never rejects a file, so a declined file is read here as if it had not
been offered. An accepted file's hypergraph keeps the parser's arrays as its
``flat``, builds edge tuples only when they are read and skips the model's check.
"""

from __future__ import annotations

from typing import Callable

from . import kernels
from .model import Hypergraph, HypergraphError
from .verify import Coloring


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line (and column when known)."""

    def __init__(self, message: str, line: int, column: int | None = None):
        at = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{at}: {message}")
        self.line = line
        self.column = column


def _as_text(data: str | bytes) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object has lost the byte order mark; offsets are into it
        lines = _lines(exc.object[:exc.start].decode("utf-8"))
        raise ParseError(f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x}",
                         len(lines), len((lines[-1] + "x").split())) from None


def _lines(text: str) -> list[str]:
    """Lines end at \\n, \\r\\n or \\r only: str.splitlines() also breaks at form
    feeds, \\x1c-\\x1e, \\x85 and U+2028/2029, which an editor shows inside a line.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _content_lines(text: str) -> list[tuple[int, str]]:
    """Non-comment, as (1-based line number, raw line) pairs; blanks kept."""
    lines = _lines(text)
    if lines[-1] == "":
        lines.pop()
    return [(num, raw) for num, raw in enumerate(lines, start=1)
            if not raw.lstrip().startswith("#")]


def _int_token(token: str, line: int, column: int) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", line, column) from None


def _parse_header(lines: list[tuple[int, str]], keyword: str, nfields: int) -> tuple[list[int], int]:
    """Return the header's integer fields and the index of the next line."""
    for i, (num, raw) in enumerate(lines):
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0] != keyword:
            raise ParseError(f"expected header {keyword!r}, got {tokens[0]!r}", num, 1)
        if len(tokens) != 1 + nfields:
            raise ParseError(
                f"header needs {nfields} integers after {keyword!r}", num)
        fields = [_int_token(t, num, k + 2) for k, t in enumerate(tokens[1:])]
        for f in fields:
            if f < 0:
                raise ParseError(f"negative header field {f}", num)
        return fields, i + 1
    raise ParseError(f"missing {keyword!r} header", len(lines) + 1)


def _locate(lines: list[tuple[int, str]], problem: Callable[[int, set[int]], str | None]) -> None:
    """Raise a ParseError at the first token that is no integer or that ``problem`` faults."""
    seen: set[int] = set()
    for num, raw in lines:
        for col, tok in enumerate(raw.split(), start=1):
            value = _int_token(tok, num, col)
            message = problem(value, seen)
            if message:
                raise ParseError(message, num, col) from None
            seen.add(value)


def _distinct_in_range(noun: str, hi: int, repeated: str) -> Callable[[int, set[int]], str | None]:
    def problem(v: int, seen: set[int]) -> str | None:
        if not 1 <= v <= hi:
            return f"{noun} {v} outside 1..{hi}"
        return f"{noun} {v} {repeated}" if v in seen else None
    return problem


def _load_compiled(data: str | bytes) -> Hypergraph | None:
    """The hypergraph kernels.parse_edges reads, or None when it declines.

    Only a first line of exactly ``hypergraph <n> <m>`` is read here; any
    other header is left to the reference parser. The body is parsed where
    it lies in ``data``: a copy of it would cost a page-faulting allocation
    on every load."""
    if isinstance(data, str):
        if not data.isascii():
            return None
        data = data.encode()
    start = data.find(b"\n") + 1 or len(data)  # the body's offset
    keyword, *fields = data[:start].removesuffix(b"\n").split(b" ")
    if keyword != b"hypergraph" or len(fields) != 2 or not all(
            f.isdigit() and len(f) < 10 for f in fields):
        return None
    n, m = int(fields[0]), int(fields[1])
    parsed = kernels.parse_edges(data, n, m, start)  # cfh_parse checks every edge
    return None if parsed is None else Hypergraph._trusted(n, m, parsed)


def load_hypergraph(data: str | bytes) -> Hypergraph:
    """Parse the hypergraph format; edge order is preserved, edges sorted."""
    if kernels.parse_edges is not None:
        h = _load_compiled(data)
        if h is not None:
            return h
    lines = _content_lines(_as_text(data))
    (n, m), start = _parse_header(lines, "hypergraph", 2)
    body = lines[start:start + m]
    try:  # Hypergraph rejects empty edges, outside and repeated vertices
        h = Hypergraph(n, tuple(tuple(sorted(map(int, raw.split()))) for _, raw in body))
    except ValueError:
        for k, (num, raw) in enumerate(body, start=1):
            if not raw.split():
                raise ParseError(f"edge {k} is empty", num) from None
            _locate([(num, raw)], _distinct_in_range("vertex", n, "repeated inside the edge"))
        raise
    if len(body) < m:
        raise ParseError(f"expected {m} edge lines, found {len(body)}", lines[-1][0] + 1)
    for num, raw in lines[start + m:]:
        if raw.split():
            raise ParseError("trailing content after the last edge", num)
    return h


def save_hypergraph(h: Hypergraph) -> str:
    """Canonical text form: header plus one sorted edge per line."""
    out = [f"hypergraph {h.n} {h.m}"]
    out.extend(" ".join(str(v) for v in edge) for edge in h.edges)
    return "\n".join(out) + "\n"


def load_coloring(data: str | bytes) -> Coloring:
    lines = _content_lines(_as_text(data))
    (n,), start = _parse_header(lines, "coloring", 1)
    body = lines[start:]
    try:  # Coloring rejects non-positive colors
        coloring = Coloring(tuple(c for _, raw in body for c in map(int, raw.split())))
    except ValueError:
        _locate(body, lambda c, _: None if c >= 1 else f"colors must be positive, got {c}")
        raise
    if len(coloring.colors) != n:
        raise ParseError(f"expected {n} colors, found {len(coloring.colors)}", lines[-1][0])
    return coloring


def save_coloring(c: Coloring) -> str:
    body = " ".join(str(x) for x in c.colors)
    return f"coloring {len(c.colors)}\n{body}\n" if c.colors else "coloring 0\n"


def load_factor(data: str | bytes) -> tuple[int, frozenset[int]]:
    """Parse a factor file; returns (host edge count, selected edge indices)."""
    lines = _content_lines(_as_text(data))
    (m,), start = _parse_header(lines, "factor", 1)
    body = lines[start:]
    try:
        indices = [i for _, raw in body for i in map(int, raw.split())]
        selected = frozenset(indices)
        if len(selected) < len(indices) or not all(1 <= i <= m for i in selected):
            raise ValueError("edge index outside the range or repeated")
    except ValueError:
        _locate(body, _distinct_in_range("edge index", m, "repeated"))
        raise
    return m, selected


def save_factor(m: int, selected: frozenset[int] | set[int]) -> str:
    bad = [i for i in selected if not 1 <= i <= m]
    if bad:
        raise HypergraphError(f"edge index {bad[0]} outside 1..{m}")
    body = " ".join(str(i) for i in sorted(selected))
    return f"factor {m}\n{body}\n" if selected else f"factor {m}\n"
