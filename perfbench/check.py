"""Output checks that do not use cfhyper.

Every expected answer comes from outside the program under test: the
paper's theorem for g_tr, parity, explicit witnesses built into the
generators, or known chromatic values. Each check takes the command's exit
code and standard output and returns None when they are right, otherwise
the reason they are wrong.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from pathlib import Path


class Instance:
    """A generated hypergraph exactly as written to its file (1-based ids)."""

    def __init__(self, n: int, edges: list[list[int]]):
        self.n = n
        self.edges = edges
        # the color and verify checks of one coloring share its verdict
        self.verdicts: dict[str, tuple[int, list[int]] | None] = {}

    def conflicts(self, text: str) -> tuple[int, list[int]] | None:
        """(palette, edges without a unique color) of a coloring text, or
        None when the text is not a coloring of this instance."""
        if text not in self.verdicts:
            parsed = parse_numbers(text, "coloring")
            ok = (parsed is not None and parsed[0] == self.n
                  and len(parsed[1]) == self.n and min(parsed[1], default=1) >= 1)
            self.verdicts[text] = (
                (max(parsed[1], default=0), conflict_failures(self, parsed[1]))
                if ok else None)
        return self.verdicts[text]

    @cached_property
    def degrees(self) -> list[int]:
        deg = [0] * (self.n + 1)
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return deg[1:]

    @cached_property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    @cached_property
    def max_edge_degree(self) -> int:
        # one bitmask of incident edges per vertex; an edge's neighbourhood
        # is the union of its vertices' masks. Each row is freed as soon as
        # it is converted, so rows and masks never coexist in full.
        rows: list[bytearray | None] = [
            bytearray((len(self.edges) + 7) // 8) for _ in range(self.n + 1)]
        for i, e in enumerate(self.edges):
            for v in e:
                rows[v][i >> 3] |= 1 << (i & 7)
        masks = []
        for v in range(len(rows)):
            masks.append(int.from_bytes(rows[v], "little"))
            rows[v] = None
        best = 0
        for e in self.edges:
            union = 0
            for v in e:
                union |= masks[v]
            best = max(best, union.bit_count() - 1)
        return best

    @cached_property
    def components(self) -> list[list[int]]:
        """Ascending vertex lists of the connected components, ordered by
        their smallest vertex."""
        parent = list(range(self.n + 1))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for e in self.edges:
            root = find(e[0])
            for v in e[1:]:
                parent[find(v)] = root
        groups: dict[int, list[int]] = {}
        for v in range(1, self.n + 1):
            groups.setdefault(find(v), []).append(v)
        return list(groups.values())

    @property
    def connected(self) -> bool:
        return len(self.components) <= 1


def parse_numbers(text: str, keyword: str) -> tuple[int, list[int]] | None:
    """(header value, body integers) of a coloring or factor text, else None."""
    tokens: list[str] = []
    for line in text.splitlines():
        if not line.lstrip().startswith("#"):
            tokens.extend(line.split())
    if len(tokens) < 2 or tokens[0] != keyword:
        return None
    try:
        values = [int(t) for t in tokens[1:]]
    except ValueError:
        return None
    return values[0], values[1:]


def conflict_failures(inst: Instance, colors: list[int]) -> list[int]:
    """1-based indices of edges without a uniquely colored vertex."""
    bad = []
    for idx, e in enumerate(inst.edges, start=1):
        cs = [colors[v - 1] for v in e]
        # more than half distinct forces a unique color; otherwise count
        if 2 * len(set(cs)) <= len(cs) and 1 not in Counter(cs).values():
            bad.append(idx)
    return bad


def coloring(inst: Instance, text: str, max_colors: int) -> str | None:
    """A conflict-free coloring of ``inst`` using colors 1..max_colors."""
    verdict = inst.conflicts(text)
    if verdict is None:
        return f"not a coloring of {inst.n} vertices"
    palette, bad = verdict
    if palette > max_colors:
        return f"palette {palette} exceeds {max_colors}"
    return f"edges without a unique color: {bad[:5]}" if bad else None


def exit_code(rc: int | None, expected: int) -> str | None:
    return None if rc == expected else f"exit code {rc}, expected {expected}"


def factor(rc: int | None, out: str, inst: Instance, a: int, b: int,
           exists: bool) -> str | None:
    """A valid {a,b}-factor when one exists, else NONE with exit code 1."""
    if not exists:
        return exit_code(rc, 1) or (
            None if out.strip() == "NONE" else f"expected NONE, got {out[:40]!r}")
    wrong = exit_code(rc, 0)
    if wrong:
        return wrong
    parsed = parse_numbers(out, "factor")
    if parsed is None:
        return "unreadable factor"
    m, selected = parsed
    if m != len(inst.edges) or len(set(selected)) != len(selected):
        return "factor header or indices malformed"
    if not all(1 <= i <= m for i in selected):
        return "factor index out of range"
    deg = [0] * (inst.n + 1)
    for i in selected:
        for v in inst.edges[i - 1]:
            deg[v] += 1
    off = [v for v in range(1, inst.n + 1) if deg[v] not in (a, b)]
    return f"vertices off degree {{{a},{b}}}: {off[:5]}" if off else None


def chi_cf(rc: int | None, out: str, inst: Instance, value: int) -> str | None:
    """The known conflict-free chromatic number plus a witness using it."""
    wrong = exit_code(rc, 0)
    if wrong:
        return wrong
    first, _, rest = out.partition("\n")
    if first.strip() != str(value):
        return f"chi_cf {first.strip()!r}, expected {value}"
    return coloring(inst, rest, value)


def color_file(rc: int | None, out: str, path: Path, inst: Instance,
               max_colors: int) -> str | None:
    """Exit code 0 and a conflict-free coloring file within the palette."""
    return exit_code(rc, 0) or coloring(inst, path.read_text(), max_colors)


def verify(rc: int | None, out: str, inst: Instance, path: Path) -> str | None:
    """The verify command reports exactly the edges this module finds bad."""
    verdict = inst.conflicts(path.read_text())
    if verdict is None:
        return "coloring under test is unreadable"
    bad = verdict[1]
    wrong = exit_code(rc, 1 if bad else 0)
    if wrong:
        return wrong
    reported = [int(t) for t in out.split()]
    return None if reported == bad else f"reported {reported[:5]}, expected {bad[:5]}"


def stats(rc: int | None, out: str, inst: Instance) -> str | None:
    """Every line of the stats report matches a direct computation."""
    sizes = {len(e) for e in inst.edges}
    degrees = set(inst.degrees)
    expected = {
        "n": inst.n,
        "m": len(inst.edges),
        "max-degree": inst.max_degree,
        "max-edge-degree": inst.max_edge_degree,
        "uniform": sizes.pop() if len(sizes) == 1 else "none",
        "regular": degrees.pop() if inst.n and len(degrees) == 1 else "none",
        "connected": "yes" if inst.connected else "no",
    }
    wrong = exit_code(rc, 0)
    if wrong:
        return wrong
    got = dict(line.split(None, 1) for line in out.splitlines() if line.strip())
    for key, value in expected.items():
        if got.get(key, "").strip() != str(value):
            return f"{key} {got.get(key)!r}, expected {value}"
    return None


def lll_palette(r: int, max_degree: int) -> int:
    """The paper's guaranteed palette: ceil((e r)^(2/r) (e r / 2) D^(2/r))."""
    return math.ceil(((math.e * r) ** (2.0 / r)) * (math.e * r / 2.0)
                     * (max_degree ** (2.0 / r)))
