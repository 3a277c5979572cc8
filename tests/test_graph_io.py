import random
import tracemalloc

import pytest
from hypothesis import given

from cfhyper import (
    Coloring,
    ParseError,
    load_coloring,
    load_factor,
    load_hypergraph,
    save_coloring,
    save_factor,
    save_hypergraph,
)
from cfhyper.constructions import build_g_tr, complete_graph, odd_cycle
from cfhyper.model import Hypergraph

from test_model import hypergraphs


def test_load_single_edge():
    h = load_hypergraph("hypergraph 3 1\n1 2 3")
    assert h.n == 3 and h.edges == ((1, 2, 3),)


def test_load_repeated_vertex():
    with pytest.raises(ParseError, match="repeated"):
        load_hypergraph("hypergraph 2 1\n1 1")


def test_load_errors_carry_position():
    with pytest.raises(ParseError, match="line 2"):
        load_hypergraph("hypergraph 2 1\n1 x")
    with pytest.raises(ParseError, match="outside"):
        load_hypergraph("hypergraph 2 1\n1 5")
    with pytest.raises(ParseError, match="empty"):
        load_hypergraph("hypergraph 2 1\n\n")
    with pytest.raises(ParseError, match="header"):
        load_hypergraph("graph 2 1\n1 2")
    with pytest.raises(ParseError, match="edge lines"):
        load_hypergraph("hypergraph 2 2\n1 2")
    with pytest.raises(ParseError, match="trailing"):
        load_hypergraph("hypergraph 2 1\n1 2\n1 2")


def test_comments_ignored():
    h = load_hypergraph("# generated\nhypergraph 2 1\n# role 1 plain 0\n1 2\n")
    assert h.edges == ((1, 2),)


def test_save_canonical():
    h = load_hypergraph("hypergraph 3 1\n3 2 1")
    assert save_hypergraph(h) == "hypergraph 3 1\n1 2 3\n"
    k4 = complete_graph(4)
    text = save_hypergraph(k4)
    assert text.splitlines()[0] == "hypergraph 4 6"
    assert len(text.splitlines()) == 7


def test_round_trip_g17():
    g, _ = build_g_tr(1, 7)
    assert load_hypergraph(save_hypergraph(g)) == g


@given(hypergraphs())
def test_round_trip_property(h):
    assert load_hypergraph(save_hypergraph(h)) == h
    assert load_hypergraph(save_hypergraph(h).encode("utf-8")) == h


def test_coloring_round_trip():
    c = Coloring((1, 2, 2, 3))
    assert load_coloring(save_coloring(c)) == c
    assert load_coloring("coloring 2\n1\n2\n") == Coloring((1, 2))
    with pytest.raises(ParseError, match="expected 3 colors"):
        load_coloring("coloring 3\n1 2")
    with pytest.raises(ParseError, match="positive"):
        load_coloring("coloring 1\n0")


def test_factor_round_trip():
    m, selected = load_factor(save_factor(10, {3, 1, 7}))
    assert m == 10 and selected == {1, 3, 7}
    assert load_factor("factor 5\n") == (5, frozenset())
    with pytest.raises(ParseError, match="outside"):
        load_factor("factor 5\n6")
    with pytest.raises(ParseError, match="repeated"):
        load_factor("factor 5\n2 2")


BIG = "1" * 5000  # more digits than int() converts

# (loader, text, full message): line and column of the first bad token
PARSE_ERRORS = [
    (load_hypergraph, "hypergraph 3 2\n1 2\n2 x 3\n",
     "line 3, column 2: expected an integer, got 'x'"),
    (load_hypergraph, "hypergraph 3 1\n1 2 3.0\n",
     "line 2, column 3: expected an integer, got '3.0'"),
    (load_hypergraph, "hypergraph 3 1\n1 4\n", "line 2, column 2: vertex 4 outside 1..3"),
    (load_hypergraph, "hypergraph 3 1\n0 1\n", "line 2, column 1: vertex 0 outside 1..3"),
    (load_hypergraph, "hypergraph 3 1\n-1 1\n", "line 2, column 1: vertex -1 outside 1..3"),
    (load_hypergraph, "hypergraph 4 1\n2 3 2\n",
     "line 2, column 3: vertex 2 repeated inside the edge"),
    (load_hypergraph, "hypergraph 4 1\n3 1 4 1\n",
     "line 2, column 4: vertex 1 repeated inside the edge"),
    (load_hypergraph, "hypergraph 3 2\n1 2\n\n", "line 3: edge 2 is empty"),
    (load_hypergraph, "hypergraph 3 2\n1 2\n   \n2 3\n", "line 3: edge 2 is empty"),
    (load_hypergraph, "hypergraph 3 3\n1 2\n2 3\n", "line 4: expected 3 edge lines, found 2"),
    (load_hypergraph, "hypergraph 3 3\n", "line 2: expected 3 edge lines, found 0"),
    (load_hypergraph, "hypergraph 3 1\n1 2\n2 3\n", "line 3: trailing content after the last edge"),
    (load_hypergraph, "hypergraph 3 1\n1 2\n# c\n\n2 3\n",
     "line 5: trailing content after the last edge"),
    (load_hypergraph, "hypergraph 3 2\n1 2\n# between\n2 x\n",
     "line 4, column 2: expected an integer, got 'x'"),
    # the first bad line wins, whatever is wrong with it
    (load_hypergraph, "hypergraph 3 3\n1 2\n1 1\n1 x\n",
     "line 3, column 2: vertex 1 repeated inside the edge"),
    (load_hypergraph, "hypergraph 3 3\n1 2\n1 x\n1 1\n",
     "line 3, column 2: expected an integer, got 'x'"),
    (load_hypergraph, "hypergraph 3 3\n1 5\n\n1 x\n", "line 2, column 2: vertex 5 outside 1..3"),
    (load_hypergraph, "hypergraph 3 4\n1 2\n\n1 x\n", "line 3: edge 2 is empty"),
    (load_hypergraph, "hypergraph 3 3\n2 3 x\n", "line 2, column 3: expected an integer, got 'x'"),
    (load_hypergraph, f"hypergraph 3 1\n1 {BIG}\n",
     f"line 2, column 2: expected an integer, got {BIG!r}"),
    (load_hypergraph, "hypergraph 3 1\n+3 1_0\n", "line 2, column 2: vertex 10 outside 1..3"),
    (load_hypergraph, "hypergraph 3 x\n", "line 1, column 3: expected an integer, got 'x'"),
    (load_coloring, "coloring 3\n1 2 x\n", "line 2, column 3: expected an integer, got 'x'"),
    (load_coloring, "coloring 3\n1 0 2\n", "line 2, column 2: colors must be positive, got 0"),
    (load_coloring, "coloring 3\n1\n2 -2 x\n", "line 3, column 2: colors must be positive, got -2"),
    (load_coloring, "coloring 3\n1 2\n", "line 2: expected 3 colors, found 2"),
    (load_coloring, "coloring 3\n1 2 3 4\n", "line 2: expected 3 colors, found 4"),
    (load_coloring, f"coloring 1\n{BIG}\n", f"line 2, column 1: expected an integer, got {BIG!r}"),
    (load_factor, "factor 3\n1 x\n", "line 2, column 2: expected an integer, got 'x'"),
    (load_factor, "factor 3\n1 4\n", "line 2, column 2: edge index 4 outside 1..3"),
    (load_factor, "factor 3\n0\n", "line 2, column 1: edge index 0 outside 1..3"),
    (load_factor, "factor 3\n2 1\n# c\n3 2\n", "line 4, column 2: edge index 2 repeated"),
    (load_factor, "factor 3\n2 2 x\n", "line 2, column 2: edge index 2 repeated"),
]


@pytest.mark.parametrize("loader, text, message", PARSE_ERRORS)
def test_parse_error_messages_are_pinned(loader, text, message):
    with pytest.raises(ParseError) as info:
        loader(text)
    assert str(info.value) == message
    where = message.split(":")[0].split(", column ")
    assert info.value.line == int(where[0].removeprefix("line "))
    assert info.value.column == (int(where[1]) if len(where) == 2 else None)


def test_int_accepted_tokens_stay_accepted():
    # int() takes a sign and digit-group underscores; the format does too
    assert load_hypergraph("hypergraph 10 1\n+3 1_0\n").edges == ((3, 10),)
    assert load_coloring("coloring 2\n+1 1_0\n") == Coloring((1, 10))
    assert load_factor("factor 3\n+1 0_3\n") == (3, frozenset({1, 3}))
    assert load_hypergraph("hypergraph 3 2\n1 2\n  # between\n2 3\n").edges == ((1, 2), (2, 3))


def test_byte_order_mark_is_accepted():
    bom = b"\xef\xbb\xbf"
    assert load_hypergraph(bom + b"hypergraph 3 1\n1 2 3\n").edges == ((1, 2, 3),)
    assert load_coloring(bom + b"coloring 2\n1 2\n") == Coloring((1, 2))


# str.splitlines() also breaks lines at these; an editor shows them inside one
@pytest.mark.parametrize("sep", ["\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_newlines_end_lines(sep):
    # whitespace between the vertex ids of an edge
    assert load_hypergraph(f"hypergraph 2 1\n1{sep}2\n").edges == ((1, 2),)
    # part of a comment, tail included
    assert load_hypergraph(f"hypergraph 2 1\n# a{sep}more\n1 2\n").edges == ((1, 2),)
    with pytest.raises(ParseError) as info:
        load_hypergraph(f"hypergraph 3 1\n# a{sep}b\n1 2\n2 x\n")
    assert str(info.value) == "line 4: trailing content after the last edge"
    with pytest.raises(ParseError) as info:
        load_hypergraph(f"hypergraph 3 2\n1{sep}2\n# a{sep}b\n3 x{sep}\n")
    assert str(info.value) == "line 4, column 2: expected an integer, got 'x'"


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_line_endings(eol):
    text = eol.join(["# c", "hypergraph 3 2", "1 2", "# c", "2 3", ""])
    assert load_hypergraph(text).edges == ((1, 2), (2, 3))
    assert load_coloring(eol.join(["coloring 2", "1", "2", ""])) == Coloring((1, 2))
    with pytest.raises(ParseError) as info:
        load_hypergraph(eol.join(["hypergraph 3 2", "1 2", "# c", "", "2 x", ""]))
    assert str(info.value) == "line 4: edge 2 is empty"
    with pytest.raises(ParseError) as info:
        load_hypergraph(eol.join(["hypergraph 3 3", "1 2", "# c", "2 3", ""]))
    assert str(info.value) == "line 5: expected 3 edge lines, found 2"


def _peak_mb(text):
    tracemalloc.start()
    try:
        load_hypergraph(text)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_load_memory_stays_near_one_pass():
    # Peaks measured with Python 3.11 before the whole-line parser: 11.1 MB
    # and 26.6 MB. The bounds allow 20%; a token list of the whole file
    # would add about 10 MB to either.
    rng = random.Random(1)
    uniform = Hypergraph.from_edges(
        2000, [rng.sample(range(1, 2001), 8) for _ in range(24000)])
    assert _peak_mb(save_hypergraph(uniform)) < 13.4
    assert _peak_mb(save_hypergraph(odd_cycle(100001))) < 32.0
