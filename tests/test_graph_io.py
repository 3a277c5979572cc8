import copy
import gc
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from cfhyper import (
    Coloring,
    LLLParams,
    ParseError,
    is_conflict_free,
    load_coloring,
    load_factor,
    load_hypergraph,
    randomized_cf_coloring,
    save_coloring,
    save_factor,
    save_hypergraph,
    stats,
    strong_condition,
)
from cfhyper import graph_io, kernels
from cfhyper.constructions import build_g_tr, complete_graph, odd_cycle
from cfhyper.kernels import available_backends
from cfhyper.model import Hypergraph

from corpus import capped_8uniform
from test_kernels import PARSE_EDGE_CASES
from test_model import hypergraphs, multi_hypergraphs

COMPILED = available_backends().get("compiled")
needs_compiled = pytest.mark.skipif(COMPILED is None, reason="compiled kernels not built")


def use_compiled_edge_layer(mp):
    """Take the parser and the readers of its layout from the compiled
    backend: a compiled load keeps the parser's arrays as its flat and reads
    its edges from them, so under CFHYPER_BACKEND=pure too they must be read
    by the backend that laid them out."""
    for name in ("parse_edges", "flatten", "unflatten", "edge_sizes", "edge_at",
                 "scan_edges", "incidence", "edge_degree", "components"):
        mp.setattr(kernels, name, getattr(COMPILED, name))


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


def test_load_memory_of_the_reference_parser(monkeypatch):
    # test_load_memory_stays_near_one_pass under the active backend, which
    # is the compiled parser where it is built; this is the other one
    monkeypatch.setattr(kernels, "parse_edges", None)
    test_load_memory_stays_near_one_pass()


@pytest.mark.parametrize("data, message", [
    (b"hypergraph 2 1\n1 \xff2\n", "line 2, column 2: invalid UTF-8 byte 0xff"),
    (b"\xef\xbb\xbfhypergraph 2 1\n1 2 \xc3\n", "line 2, column 3: invalid UTF-8 byte 0xc3"),
    (b"# caf\xe9\r\nhypergraph 2 1\n1 2\n", "line 1, column 2: invalid UTF-8 byte 0xe9"),
    (b"hypergraph 2 1\r\r1  \t\x80\n", "line 3, column 2: invalid UTF-8 byte 0x80"),
    (b"\xffhypergraph 2 0\n", "line 1, column 1: invalid UTF-8 byte 0xff"),
])
def test_invalid_utf8_names_line_and_column(data, message):
    for loader in (load_hypergraph, load_coloring, load_factor):
        with pytest.raises(ParseError) as info:
            loader(data)
        assert str(info.value) == message


# Each of these differs from plain ASCII decimal ids separated by spaces
# or tabs somewhere; the compiled parser declines them all
DECLINED = [
    "hypergraph 10 1\n+3 1\n",
    "hypergraph 10 1\n3 1_0\n",
    "hypergraph 3 1\n\u0661 2\n",
    *(f"hypergraph 3 1\n1{sep}2\n" for sep in "\v\f\x1c\x1d\x1e\x1f\xa0\x85\u2028"),
    "hypergraph 3 2\r\n1 2\r\n2 3\r\n",
    "hypergraph 3 2\n1 2\r2 3\n",
    "hypergraph 3 2\n1 2\n# between\n2 3\n",
    "hypergraph 3 2\n1 2\n\n2 3\n",
    "hypergraph 3 1\n1 2\n\n2 3\n",
    "hypergraph 3 1\n1 2\n# after\n",
    "hypergraph 3 1\n0 2\n",
    "hypergraph 3 1\n1 4\n",
    "hypergraph 3 1\n2 1 2\n",
    "hypergraph 3 1\n1 2147483648\n",
    "hypergraph 3 1\n1 9223372036854775808\n",
    f"hypergraph 3 1\n1 {BIG}\n",
    f"hypergraph 3 1\n{'0' * 4999}1\n",
    "hypergraph 3 2\n1 2\n",
    "hypergraph 3 1",
    "hypergraph 3 10000000000\n1 2\n",
    "hypergraph 10000000000 1\n1 2\n",
    "hypergraph 3 2147483648\n1 2\n",
    "# comment\nhypergraph 3 1\n1 2\n",
    "hypergraph  3 1\n1 2\n",
    "hypergraph\t3 1\n1 2\n",
    "hypergraph 3 1 \n1 2\n",
    "hypergraph 3\n1 2\n",
    "hypergraph 3 1\n1 2 x\n",
    "graph 3 1\n1 2\n",
    "",
]
ACCEPTED = [
    "hypergraph 3 1\n3 1 2",
    "hypergraph 3 2\n 3\t1  \n2 3\n \t\n\n",
    "hypergraph 03 2\n0001 2\n0000000003\n",
    "hypergraph 0 0\n",
    "hypergraph 5 0",
    "hypergraph 5 0\n\n  \n",
]


def _outcome(data):
    try:
        return load_hypergraph(data)
    except ValueError as exc:  # ParseError or HypergraphError
        return type(exc), str(exc)


def _compiled_and_reference(data):
    """load_hypergraph's outcome with the compiled parser, then without it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "parse_edges", COMPILED.parse_edges)
        compiled = _outcome(data)
        mp.setattr(kernels, "parse_edges", None)
        return compiled, _outcome(data)


@needs_compiled
@pytest.mark.parametrize("text", DECLINED + ACCEPTED)
def test_compiled_parser_declines_all_but_plain_ids(text, monkeypatch):
    use_compiled_edge_layer(monkeypatch)
    for data in (text, text.encode()):
        h = graph_io._load_compiled(data)
        assert (h is None) == (text in DECLINED)
        compiled, reference = _compiled_and_reference(data)
        assert compiled == reference
        assert h is None or h == reference


_STRAY = st.sampled_from([
    "+1", "1_0", "\u0661", "\v", "\f", "\x1c", "\x1f", "\xa0", "\r", "\r\n",
    "\n# c\n", "\n\n", "\n \n", "0", "2147483648", "9223372036854775808",
    "0" * 4999 + "1", BIG, "x", "-", "\x00", "\u2028"])


@st.composite
def hypergraph_files(draw):
    """A hypergraph file as text, laid out in any way the format allows,
    sometimes with one stray token or separator put in."""
    h = draw(multi_hypergraphs())
    gaps = st.sampled_from([" ", "\t", "  ", " \t"])
    lines = []
    for edge in h.edges:
        ids = [draw(st.sampled_from(["", "0", "00"])) + str(v)
               for v in draw(st.permutations(edge))]
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + "".join(
            draw(gaps) + v if k else v for k, v in enumerate(ids)))
    body = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n", "\n \t\n"]))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(_STRAY) + body[at:]
    return f"hypergraph {h.n} {h.m}\n" + body


@needs_compiled
@given(hypergraph_files())
def test_compiled_parser_matches_the_reference(text):
    with pytest.MonkeyPatch.context() as mp:
        use_compiled_edge_layer(mp)
        for data in (text, text.encode(), b"\xef\xbb\xbf" + text.encode()):
            compiled, reference = _compiled_and_reference(data)
            assert compiled == reference


def _check_trusted(data):
    """The compiled load of ``data``, if it accepts it, equals the checked
    construction, and its flat is its edges flattened."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "parse_edges", COMPILED.parse_edges)
        h = graph_io._load_compiled(data)
    if h is not None:
        assert h == Hypergraph(h.n, h.edges)
        assert h.flat == COMPILED.flatten(h.edges)
    return h


@needs_compiled
@pytest.mark.parametrize("case", sorted(PARSE_EDGE_CASES))
def test_trusted_load_of_parse_edge_cases(case, monkeypatch):
    use_compiled_edge_layer(monkeypatch)
    body, n, m, expected = PARSE_EDGE_CASES[case]
    h = _check_trusted(b"hypergraph %d %d\n" % (n, m) + body)
    if h is not None:  # headers past nine digits are left to the reference parser
        ends, ids = expected
        assert h.edges == tuple(tuple(ids[a:b]) for a, b in zip(ends, ends[1:]))


@needs_compiled
@given(hypergraph_files())
def test_trusted_load_of_file_layouts(text):
    with pytest.MonkeyPatch.context() as mp:
        use_compiled_edge_layer(mp)
        _check_trusted(text)


@needs_compiled
@pytest.mark.parametrize("enabled", [True, False])
def test_compiled_load_restores_the_collector(monkeypatch, enabled):
    use_compiled_edge_layer(monkeypatch)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        h = load_hypergraph("hypergraph 3 2\n1 2\n2 3\n")
        assert h.m == 2 and "edges" not in h.__dict__
        assert h.edges == ((1, 2), (2, 3))  # the edge tuples are built here
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


LAZY_FILES = {
    "uniform": "hypergraph 5 3\n1 2 3\n2 3 4\n3 4 5\n",
    "mixed sizes": "hypergraph 6 4\n1 2\n2 4 3\n1 5 6 3\n6\n",
    "size-1 edges": "hypergraph 3 4\n2\n1\n3\n2\n",
    "parallel edges": "hypergraph 4 3\n1 2\n2 1\n3 4\n",
    "no edges": "hypergraph 0 0\n",
}


@needs_compiled
@pytest.mark.parametrize("text", LAZY_FILES.values(), ids=list(LAZY_FILES))
def test_compiled_load_builds_its_edges_when_read(text, monkeypatch):
    use_compiled_edge_layer(monkeypatch)

    def lazy():
        h = load_hypergraph(text)
        assert "edges" not in h.__dict__
        return h

    h = lazy()
    built = Hypergraph(h.n, h.edges)
    assert "edges" in h.__dict__
    h = lazy()
    assert (h.m, h.uniform_r) == (built.m, built.uniform_r)
    assert [h.edge(i) for i in range(1, h.m + 1)] == list(built.edges)
    for index in (0, h.m + 1):
        with pytest.raises(IndexError):
            h.edge(index)
    assert not hasattr(h, "nope")
    assert "edges" not in h.__dict__
    assert lazy() == built and built == lazy()
    assert hash(lazy()) == hash(built) and repr(lazy()) == repr(built)
    for twin in (pickle.loads(pickle.dumps(lazy())), copy.deepcopy(lazy())):
        assert "edges" not in twin.__dict__
        assert twin.m == built.m and twin == built and hash(twin) == hash(built)


@needs_compiled
def test_coloring_a_compiled_load_builds_no_edge_tuple(monkeypatch):
    use_compiled_edge_layer(monkeypatch)
    built = capped_8uniform(random.Random(1001))
    h = load_hypergraph(save_hypergraph(built))
    params = LLLParams(k=30, seed=0)  # 85 resampling rounds
    c = randomized_cf_coloring(h, params)
    assert c == randomized_cf_coloring(built, params)
    assert is_conflict_free(h, c) == [] and strong_condition(h, c) == []
    assert "edges" not in h.__dict__


@needs_compiled
@pytest.mark.parametrize("text", [*LAZY_FILES.values(), "hypergraph 7 2\n1 2\n6 5\n"],
                         ids=[*LAZY_FILES, "isolated vertices"])
def test_stats_of_a_compiled_load_builds_no_edge_tuple(text, monkeypatch):
    use_compiled_edge_layer(monkeypatch)
    h = load_hypergraph(text)
    built = Hypergraph(h.n, h.edges)
    h = load_hypergraph(text)
    assert stats(h) == stats(built)
    assert h.components == built.components
    assert "edges" not in h.__dict__
