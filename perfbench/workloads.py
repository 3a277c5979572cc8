"""Seeded instances and command cycles for the three workloads.

A workload is an endless sequence of cycles. A cycle is a fixed mix of CLI
commands on freshly generated, relabelled instance files, so no two
commands of a run read identical input and a cache across calls cannot
stand in for the search. Each command carries its check from check.py.

The mixes are chosen so that the median and the 90th percentile of command
time each fall inside one kind of command rather than on the boundary
between two kinds, where they would jump from kind to kind between runs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import check
from check import Instance

Edges = list[list[int]]


@dataclass
class Command:
    kind: str
    argv: list[str]
    check: Callable[[int | None, str], str | None]


class Inputs:
    """Writes instance files into a work directory, never the same text twice.

    File names restart after clear(), which empties the files rather than
    deleting them: on the disks this was tuned on, creating a file cost
    about ten times as much as rewriting one and varied far more, and that
    cost would otherwise sit in set-up and in every command that writes.
    """

    def __init__(self, rng: random.Random, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.count = 0
        self.seen: set[bytes] = set()

    def path(self, suffix: str) -> Path:
        self.count += 1
        return self.workdir / f"{self.count}.{suffix}"

    def instance(self, n: int, edges: Edges) -> tuple[str, Instance]:
        """Write a random relabelling of (n, edges); return its path and form."""
        for _ in range(100):
            perm = list(range(1, n + 1))
            self.rng.shuffle(perm)
            relabelled = [[perm[v - 1] for v in e] for e in edges]
            for e in relabelled:
                self.rng.shuffle(e)
            self.rng.shuffle(relabelled)
            text = f"hypergraph {n} {len(edges)}\n" + "".join(
                " ".join(map(str, e)) + "\n" for e in relabelled)
            digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
            if digest not in self.seen:
                self.seen.add(digest)
                path = self.path("hg")
                path.write_text(text)
                return str(path), Instance(n, relabelled)
        raise RuntimeError("could not draw an unseen relabelling")

    def clear(self) -> None:
        """Empty every file, so a command that fails to write its output
        leaves an empty file behind, not an earlier cycle's."""
        for path in self.workdir.iterdir():
            path.write_bytes(b"")
        self.count = 0


# --- constructions, written independently of cfhyper.constructions ---------

def complete(n: int) -> Edges:
    return [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def cycle(n: int) -> Edges:
    return [[i, i % n + 1] for i in range(1, n + 1)]


def octahedron() -> Edges:
    return [e for e in complete(6) if e not in ([1, 2], [3, 4], [5, 6])]


def k4e_gadget(r: int) -> Edges:
    """r/2 diamonds plus one edge through their degree-2 vertices; chi_cf 4."""
    edges: Edges = []
    big = []
    for c in range(r // 2):
        q = [4 * c + 1, 4 * c + 2, 4 * c + 3, 4 * c + 4]
        edges.extend([q[i], q[j]] for i in range(4) for j in range(i + 1, 4)
                     if (i, j) != (2, 3))
        big.extend(q[2:])
    return edges + [big]


def ring_of_k4(length: int) -> Edges:
    """A ring of cut vertices, each carrying a pendant K4.

    It has a {2,4}-factor: every ring edge plus a 4-cycle in each K4.
    """
    edges: Edges = []
    for i in range(length):
        c = 4 * i + 1
        edges.append([c, 4 * ((i + 1) % length) + 1])
        q = [c, c + 1, c + 2, c + 3]
        edges.extend([q[a], q[b]] for a in range(4) for b in range(a + 1, 4))
    return edges


def g_tr(t: int, r: int) -> tuple[int, Edges]:
    """The paper's r-regular graph without a {t, r-t}-factor."""
    delta = r - (t + 1) * (t + 2)
    edges: Edges = []
    hubs = []
    n = 0
    for _ in range(delta + 1):
        hub = n + (t + 1) * (2 * r - 1) + 1
        for _ in range(t + 1):
            left = [n + i for i in range(1, r)]
            right = [n + r - 1 + i for i in range(1, r + 1)]
            matched, hubbed = right[:r - t - 2], right[r - t - 2:]
            edges.extend([u, v] for u in left for v in right)
            edges.extend([matched[i], matched[i + 1]]
                         for i in range(0, len(matched), 2))
            edges.extend([v, hub] for v in hubbed)
            n += 2 * r - 1
        n += 1
        hubs.append(hub)
    edges.extend([hubs[i], hubs[j]] for i in range(len(hubs))
                 for j in range(i + 1, len(hubs)))
    return n, edges


def capped_uniform(rng: random.Random, n: int, r: int, cap: int,
                   m: int) -> Edges:
    """Up to m random r-subsets of 1..n, no vertex in more than cap of them."""
    deg = [0] * (n + 1)
    edges: Edges = []
    available = list(range(1, n + 1))
    while len(edges) < m and len(available) >= r:
        pick = rng.sample(available, r)
        if any(deg[v] >= cap for v in pick):
            available = [v for v in available if deg[v] < cap]
            continue
        for v in pick:
            deg[v] += 1
        edges.append(pick)
    return edges


def largest_component(n: int, edges: Edges) -> tuple[int, Edges]:
    """The vertices and edges of the component with the most vertices."""
    best = max(Instance(n, edges).components, key=len)
    keep = {v: i for i, v in enumerate(best, start=1)}
    return len(keep), [[keep[v] for v in e] for e in edges if e[0] in keep]


def two_regular_4uniform(rng: random.Random, m: int) -> tuple[int, Edges]:
    """A connected 2-regular 4-uniform hypergraph with m edges.

    It is the dual of a loopless 4-regular multigraph G on m vertices. For
    even m, G is a perfect matching plus a 3-regular multigraph, so coloring
    the matching's edges 1 and the rest 2 is conflict-free: chi_cf is 2.
    For odd m, chi_cf is 3 by parity: each edge needs an odd number of
    color-1 vertices, but every vertex lies in two edges.
    """
    while True:
        stubs = [v for v in range(m) for _ in range(4 if m % 2 else 3)]
        rng.shuffle(stubs)
        g = [stubs[i:i + 2] for i in range(0, len(stubs), 2)]
        if m % 2 == 0:
            order = list(range(m))
            rng.shuffle(order)
            g += [order[i:i + 2] for i in range(0, m, 2)]
        if any(u == v for u, v in g):
            continue
        incident: Edges = [[] for _ in range(m)]
        for i, (u, v) in enumerate(g, start=1):
            incident[u].append(i)
            incident[v].append(i)
        if Instance(len(g), incident).connected:
            return len(g), incident


# --- cycles ------------------------------------------------------------------
# A cycle is built as units, each a command or a color-then-verify pair, and
# the units are shuffled so that kinds interleave without a verify ever
# running before the coloring it reads.

Unit = list[Command]


def shuffled(rng: random.Random, units: list[Unit]) -> list[Command]:
    rng.shuffle(units)
    return [cmd for unit in units for cmd in unit]


def colored(inp: Inputs, kind: str, argv: list[str], path: str, inst: Instance,
            palette: int) -> Unit:
    """A color command writing a fresh file, then verify on that file."""
    out = inp.path("col")
    return [
        Command(kind, [*argv, path, "-o", str(out)],
                partial(check.color_file, path=out, inst=inst, max_colors=palette)),
        Command("verify", ["verify", path, str(out)],
                partial(check.verify, inst=inst, path=out)),
    ]


def exact_cycle(inp: Inputs) -> list[Command]:
    """30 commands: p50 falls among the k4e_gadget(10) colorings (ranks
    33-83%, with ring-9), p90 among g_tr (83-100%, with ring-10).

    The gadgets' search effort spreads over a factor of three across
    relabellings, so their times form a continuum rather than one value;
    on a host whose speed switches between levels, a percentile inside a
    one-valued kind would jump between those levels from run to run.
    """
    rng = inp.rng
    units: list[Unit] = []

    def factor(kind: str, n: int, edges: Edges, a: int, b: int,
               exists: bool) -> None:
        path, inst = inp.instance(n, edges)
        units.append([Command(
            kind, ["factor", "--a", str(a), "--b", str(b), path],
            partial(check.factor, inst=inst, a=a, b=b, exists=exists))])

    def chi(kind: str, n: int, edges: Edges, value: int) -> None:
        path, inst = inp.instance(n, edges)
        units.append([Command(kind, ["chi-cf", path],
                              partial(check.chi_cf, inst=inst, value=value))])

    for _ in range(2):
        factor("octahedron", 6, octahedron(), 1, 3, True)
    for n in (5, 7):
        factor("odd-complete", n, complete(n), 1, 3, False)  # parity
    n = rng.choice((5, 7, 9))
    chi("odd-cycle", n, cycle(n), 3)
    n = rng.choice((4, 5, 6))
    chi("complete", n, complete(n), n)
    for _ in range(12):
        chi("k4e-gadget", 20, k4e_gadget(10), 4)
    for length, count in ((8, 4), (9, 3), (10, 1)):
        for _ in range(count):
            factor(f"ring-{length}", 4 * length, ring_of_k4(length), 2, 4, True)
    n, edges = g_tr(1, 7)
    for _ in range(4):
        factor("g_tr", n, edges, 1, 6, False)  # the paper's theorem
    return shuffled(rng, units)


def color4_cycle(inp: Inputs) -> list[Command]:
    """30 commands: p50 falls among the verifies (ranks 27-60%, above the
    even characterizations), p90 among the degree-3 colorings (73-100%)."""
    rng = inp.rng
    units: list[Unit] = []
    four = ["color", "--algo", "four"]
    while len(units) < 8:
        n = rng.randint(8, 200)
        sub_n, edges = largest_component(
            n, capped_uniform(rng, n, 4, 3, rng.randint(n // 3, 3 * n // 4)))
        if len(edges) >= 2 and Instance(sub_n, edges).max_degree == 3:
            path, inst = inp.instance(sub_n, edges)
            units.append(colored(inp, "four-deg3", four, path, inst, 3))
    while len(units) < 10:
        n, cap = rng.randint(20, 200), rng.choice((4, 5))
        edges = capped_uniform(rng, n, 4, cap, rng.randint(n // 2, n))
        if Instance(n, edges).max_degree == cap:
            path, inst = inp.instance(n, edges)
            units.append(colored(inp, "four-peel", four, path, inst, cap))
    # small duals: with m <= 12 the factor search inside characterize-4u
    # stayed under 10 ms on 9000 relabelled instances, while from m = 14 up
    # about one in a thousand takes seconds, and one at m = 136 took 45 s
    for m in [rng.randrange(4, 13, 2) for _ in range(8)] + [5, 7]:
        n, edges = two_regular_4uniform(rng, m)
        path, inst = inp.instance(n, edges)
        units.append([Command(
            "characterize-odd" if m % 2 else "characterize-even",
            ["chi-cf", "--mode", "characterize-4u", path],
            partial(check.chi_cf, inst=inst, value=2 + m % 2))])
    return shuffled(rng, units)


def lll8_cycle(inp: Inputs) -> list[Command]:
    """34 commands on two fresh 24k-edge instances: p50 falls among the
    parse-bound verifies (ranks 32-79%), p90 among the six commands bound
    by stats() (82-100%): two stats and four default-palette colorings.

    The one 30-color run takes 0.8-2 s, depending on its seed, so it
    falls just below them or among them; p90 stays inside the group
    either way.
    """
    rng = inp.rng
    units: list[Unit] = []
    lll = ["color", "--algo", "lll"]
    files = []
    for _ in range(2):
        path, inst = inp.instance(2000, capped_uniform(rng, 2000, 8, 100, 24000))
        files.append((path, inst))
        units.append([Command("stats", ["stats", path],
                              partial(check.stats, inst=inst))])
        for _ in range(2):
            units.append(colored(
                inp, "lll-default", [*lll, "--seed", str(rng.getrandbits(31))],
                path, inst, check.lll_palette(8, inst.max_degree)))
    for i in range(12):
        path, inst = files[i % 2]
        k = 30 if i == 0 else 75
        units.append(colored(
            inp, f"lll-{k}",
            [*lll, "--colors", str(k), "--seed", str(rng.getrandbits(31))],
            path, inst, k))
    return shuffled(rng, units)


CYCLES: dict[str, Callable[[Inputs], list[Command]]] = {
    "exact": exact_cycle,
    "color4": color4_cycle,
    "lll8": lll8_cycle,
}
