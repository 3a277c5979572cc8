"""Command-line interface: seven subcommands parsed with the standard
library's argparse, so the package has no runtime dependency.

Exit codes: 0 success/OK, 1 negative mathematical answer (no factor,
violations found), 2 search budget or resample cap exceeded, 64 usage
errors, 65 malformed input data, 66 I/O failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import constructions as cons
from .exact_cf import chi_cf_exact
from .factors import (
    DEFAULT_BUDGET,
    SearchBudgetExceeded,
    find_ab_factor,
    parity_precheck,
)
from .four_uniform import characterize_4uniform, color_4uniform
from .graph_io import (
    ParseError,
    load_coloring,
    load_hypergraph,
    save_coloring,
    save_factor,
    save_hypergraph,
)
from .greedy import greedy_cf_coloring
from .lll import DEFAULT_MAX_ROUNDS, LLLParams, color_bound, randomized_cf_coloring
from .model import HypergraphError, VertexRoleMap, dual, stats
from .verify import is_conflict_free


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def _positive(text: str) -> int:
    try:
        if text.strip().isdecimal() and (value := int(text)) >= 1:
            return value
    except ValueError:  # int() refuses more than 4,300 digits
        pass
    raise argparse.ArgumentTypeError(
        f"expected an integer >= 1, got {text if len(text) <= 40 else text[:20] + '...'!r}")


def _output_file(path: str) -> str:
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    return path


def _input_file(path: str) -> str:
    if not os.access(path, os.R_OK):
        what = "is not readable" if os.path.exists(path) else "does not exist"
        raise argparse.ArgumentTypeError(f"file {path!r} {what}")
    return _output_file(path)


def _arg(*flags: str, **options) -> tuple:
    return flags, options


_OUTPUT = _arg("-o", "--output", required=True, type=_output_file)
_FILE = _arg("file", metavar="FILE", type=_input_file)
_PARSER = _Parser(prog="cfhyper", allow_abbrev=False, description=(
    "Conflict-free hypergraph colorings and {a,b}-factor search."))
_COMMANDS = _PARSER.add_subparsers(metavar="COMMAND", required=True)


def _command(name: str, *arguments: tuple):
    def register(fn):
        parser = _COMMANDS.add_parser(name, help=fn.__doc__, description=fn.__doc__,
                                      allow_abbrev=False)
        for flags, options in arguments:
            parser.add_argument(*flags, **options)
        parser.set_defaults(command=fn)
        return fn
    return register


def _echo(message: str, err: bool = False, nl: bool = True) -> None:
    print(message, end="\n" if nl else "", file=sys.stderr if err else None)


def _read(path: str) -> bytes:
    # the loaders decode, so a byte that is no UTF-8 is a ParseError
    return Path(path).read_bytes()


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _role_comments(roles: VertexRoleMap) -> str:
    return "".join(
        f"# role {v} {r.kind} {r.copy}\n" for v, r in enumerate(roles.roles, start=1))


@_command("gen",
          _arg("--construction", dest="kind", required=True, choices=cons.KINDS),
          _arg("--t", type=int, help="factor degree parameter"),
          _arg("--r", type=int, help="regularity / edge size"),
          _arg("--n", type=int, help="vertex count"),
          _arg("--delta", type=int, help="maximum degree"),
          _OUTPUT,
          _arg("--roles", action=argparse.BooleanOptionalAction, default=False,
               help="emit '# role' comment lines for generated vertex roles"))
def gen(kind: str, t: int | None, r: int | None, n: int | None,
        delta: int | None, output: str, roles: bool) -> int:
    """Generate a named construction and write it to a hypergraph file."""

    def need(value: int | None, flag: str) -> int:
        if value is None:
            raise argparse.ArgumentError(None, f"--construction {kind} requires {flag}")
        return value

    role_map = VertexRoleMap()
    if kind in ("g_tr", "h_block", "g_prime"):
        builder = {
            "g_tr": cons.build_g_tr,
            "h_block": cons.build_h_block,
            "g_prime": cons.build_g_prime,
        }[kind]
        h, role_map = builder(need(t, "--t"), need(r, "--r"))
    elif kind == "complete_graph":
        h = cons.complete_graph(need(n, "--n"))
    elif kind == "odd_cycle":
        h = cons.odd_cycle(need(n, "--n"))
    elif kind == "gap_nested":
        h = cons.gap_nested(need(delta, "--delta"))
    elif kind == "two_cliques":
        h = cons.two_cliques(need(delta, "--delta"))
    else:
        h = cons.k4e_gadget(need(r, "--r"))

    text = save_hypergraph(h)
    if roles and role_map.roles:
        text = _role_comments(role_map) + text
    _write(output, text)
    return 0


@_command("color",
          _arg("--algo", required=True, choices=["greedy", "four", "lll", "exact"]),
          _arg("--colors", type=_positive,
               help="palette size (lll: defaults to the guaranteed bound; "
                    "exact: search cap)"),
          _arg("--seed", type=int, default=0, help="[default: %(default)s]"),
          _arg("--max-resamples", type=_positive, default=DEFAULT_MAX_ROUNDS,
               help="[default: %(default)s]"),
          _FILE,
          _OUTPUT)
def color(algo: str, colors: int | None, seed: int, max_resamples: int,
          file: str, output: str) -> int:
    """Color the hypergraph in FILE and write the coloring to -o."""
    h = load_hypergraph(_read(file))
    if algo == "greedy":
        coloring = greedy_cf_coloring(h)
    elif algo == "four":
        coloring = color_4uniform(h)
    elif algo == "lll":
        if colors is None:
            # one color serves no edges or edges of size 1; color_bound is
            # monotone in the degree, so its value at 2 covers degree 1
            r = h.uniform_r
            if h.m and r is None:
                raise HypergraphError(
                    "default palette needs a uniform hypergraph; pass --colors")
            colors = 1 if r in (None, 1) else color_bound(r, max(h.max_degree, 2))
        maybe = randomized_cf_coloring(
            h, LLLParams(k=colors, seed=seed, max_rounds=max_resamples))
        if maybe is None:
            _echo("resample cap exceeded", err=True)
            return 2
        coloring = maybe
    else:
        result = chi_cf_exact(h, k_max=colors)
        if result is None:
            _echo(f"no conflict-free coloring with {colors} colors", err=True)
            return 1
        coloring = result.witness
    _write(output, save_coloring(coloring))
    return 0


@_command("verify", _arg("hypergraph", metavar="HYPERGRAPH", type=_input_file),
          _arg("coloring", metavar="COLORING", type=_input_file))
def verify(hypergraph: str, coloring: str) -> int:
    """Check conflict-freeness; bad edge indices print one per line."""
    h = load_hypergraph(_read(hypergraph))
    c = load_coloring(_read(coloring))
    bad = is_conflict_free(h, c)
    for idx in bad:
        _echo(str(idx))
    return 1 if bad else 0


@_command("dual", _FILE, _OUTPUT)
def dual_cmd(file: str, output: str) -> int:
    """Write the dual hypergraph of FILE to -o."""
    h = load_hypergraph(_read(file))
    _write(output, save_hypergraph(dual(h)))
    return 0


@_command("factor",
          _arg("--a", required=True, type=_positive),
          _arg("--b", required=True, type=_positive),
          _arg("--budget", type=_positive, default=DEFAULT_BUDGET,
               help="search-node limit [default: %(default)s]"),
          _FILE)
def factor(a: int, b: int, budget: int, file: str) -> int:
    """Search an {a,b}-factor; prints a factor file, NONE, or BUDGET."""
    if b < a:
        raise argparse.ArgumentError(None, f"--b must be at least --a, got {b} < {a}")
    g = load_hypergraph(_read(file))
    obstruction = parity_precheck(g, a, b)
    if obstruction is not None:
        _echo(f"infeasible by parity: {obstruction}", err=True)
        _echo("NONE")
        return 1
    found = find_ab_factor(g, a, b, budget=budget)
    if found is None:
        _echo("NONE")
        return 1
    _echo(save_factor(g.m, found.selected), nl=False)
    return 0


@_command("chi-cf",
          _arg("--max-k", type=_positive,
               help="largest palette to try (default: max degree + 1)"),
          _arg("--mode", choices=["exact", "characterize-4u"], default="exact",
               help="characterize-4u: the exact oracle, for connected 4-uniform "
                    "inputs of max degree <= 2 only [default: %(default)s]"),
          _FILE)
def chi_cf(max_k: int | None, mode: str, file: str) -> int:
    """Exact conflict-free chromatic number plus a witness coloring, or
    BUDGET when the factor search for a 2-regular uniform part runs out."""
    h = load_hypergraph(_read(file))
    if mode == "characterize-4u":
        res = characterize_4uniform(h)
        _echo(str(res.chi_cf))
        _echo(save_coloring(res.coloring), nl=False)
        return 0
    result = chi_cf_exact(h, k_max=max_k)
    if result is None:
        _echo(f"above {max_k}")
        return 1
    _echo(str(result.chi_cf))
    _echo(save_coloring(result.witness), nl=False)
    return 0


@_command("stats", _FILE)
def stats_cmd(file: str) -> int:
    """Print size, degree, uniformity, regularity, and connectivity."""
    st = stats(load_hypergraph(_read(file)))
    _echo(f"n {st.n}")
    _echo(f"m {st.m}")
    _echo(f"max-degree {st.max_degree}")
    _echo(f"max-edge-degree {st.max_edge_degree}")
    _echo(f"uniform {st.uniform_r if st.uniform_r is not None else 'none'}")
    _echo(f"regular {st.regular_a if st.regular_a is not None else 'none'}")
    _echo(f"connected {'yes' if st.connected else 'no'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        args = vars(_PARSER.parse_args(argv))
        return args.pop("command")(**args)
    except SystemExit:  # only --help exits, after printing; error() raises
        return 0
    except SearchBudgetExceeded as exc:
        _echo(str(exc), err=True)
        _echo("BUDGET")
        return 2
    except argparse.ArgumentError as exc:
        _echo(f"usage error: {exc}", err=True)
        return 64
    except ParseError as exc:
        _echo(f"input error: {exc}", err=True)
        return 65
    except HypergraphError as exc:
        _echo(f"data error: {exc}", err=True)
        return 65
    except OSError as exc:
        _echo(f"i/o error: {exc}", err=True)
        return 66


if __name__ == "__main__":
    sys.exit(main())
