import random
import tracemalloc

import pytest

from cfhyper import (
    Hypergraph,
    color_bound,
    load_coloring,
    load_factor,
    load_hypergraph,
    save_hypergraph,
)
from cfhyper import kernels
from cfhyper.cli import main
from cfhyper.constructions import build_g_tr
from cfhyper.kernels import available_backends

from corpus import connected_4uniform_corpus, random_uniform_hypergraph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_and_stats(tmp_path, capsys):
    out = tmp_path / "g.hg"
    code, _, _ = run(capsys, "gen", "--construction", "g_tr",
                     "--t", "1", "--r", "7", "-o", str(out))
    assert code == 0
    assert load_hypergraph(out.read_text()) == build_g_tr(1, 7)[0]

    code, text, _ = run(capsys, "stats", str(out))
    assert code == 0
    assert "n 54" in text and "m 189" in text
    assert "regular 7" in text and "connected yes" in text


@pytest.mark.parametrize("n, edges, expected", [
    (20001, [(i, i % 20001 + 1) for i in range(1, 20002)], "max-edge-degree 2"),
    (20000, [(2 * i - 1, 2 * i) for i in range(1, 10001)], "max-edge-degree 0"),
])
def test_stats_large_sparse_input_stays_small(tmp_path, capsys, n, edges,
                                              expected):
    # an odd cycle and a perfect matching: edge-degree bitmasks would take
    # n * m / 8 bytes (50 MB and 25 MB here); the whole command needs ~6 MB
    hg = tmp_path / "x.hg"
    hg.write_text(save_hypergraph(Hypergraph.from_edges(n, edges)))
    tracemalloc.start()
    try:
        code, text, _ = run(capsys, "stats", str(hg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and expected in text
    assert peak < 15 * 2**20


def test_gen_roles(tmp_path, capsys):
    out = tmp_path / "h.hg"
    code, _, _ = run(capsys, "gen", "--construction", "h_block",
                     "--t", "1", "--r", "7", "-o", str(out), "--roles")
    assert code == 0
    text = out.read_text()
    assert "# role 14 u 1" in text
    assert load_hypergraph(text).n == 14


def test_gen_missing_param(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--construction", "odd_cycle",
                       "-o", str(tmp_path / "x.hg"))
    assert code == 64
    assert "requires --n" in err


def test_gen_invalid_param(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--construction", "odd_cycle",
                       "--n", "4", "-o", str(tmp_path / "x.hg"))
    assert code == 65
    assert "odd" in err


def test_factor_pipeline_g17(tmp_path, capsys):
    g = tmp_path / "g.hg"
    assert run(capsys, "gen", "--construction", "g_tr",
               "--t", "1", "--r", "7", "-o", str(g))[0] == 0
    code, out, _ = run(capsys, "factor", "--a", "1", "--b", "6", str(g))
    assert code == 1
    assert out.strip() == "NONE"


def test_factor_parity_certificate(tmp_path, capsys):
    k5 = tmp_path / "k5.hg"
    run(capsys, "gen", "--construction", "complete_graph", "--n", "5",
        "-o", str(k5))
    code, out, err = run(capsys, "factor", "--a", "1", "--b", "3", str(k5))
    assert code == 1
    assert out.strip() == "NONE"
    assert "parity" in err


def test_factor_witness_output(tmp_path, capsys):
    k4 = tmp_path / "k4.hg"
    run(capsys, "gen", "--construction", "complete_graph", "--n", "4",
        "-o", str(k4))
    code, out, _ = run(capsys, "factor", "--a", "1", "--b", "1", str(k4))
    assert code == 0
    m, selected = load_factor(out)
    assert m == 6 and len(selected) == 2


def test_factor_budget(tmp_path, capsys):
    g = tmp_path / "g.hg"
    run(capsys, "gen", "--construction", "g_tr", "--t", "1", "--r", "7",
        "-o", str(g))
    code, out, _ = run(capsys, "factor", "--a", "1", "--b", "6",
                       "--budget", "3", str(g))
    assert code == 2
    assert out.strip() == "BUDGET"


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_factor_numbers_past_machine_ints(tmp_path, capsys, monkeypatch, backend):
    # the compiled kernel takes C integers; a larger budget or degree must
    # not turn into an exception and exit 1, which means "no factor"
    impl = available_backends()[backend]
    monkeypatch.setattr(kernels, "solve_degree_constrained", impl.solve_degree_constrained)
    k4 = tmp_path / "k4.hg"
    run(capsys, "gen", "--construction", "complete_graph", "--n", "4",
        "-o", str(k4))
    code, out, _ = run(capsys, "factor", "--a", "1", "--b", "3",
                       "--budget", str(10**20), str(k4))
    assert code == 0 and load_factor(out) == (6, frozenset(range(1, 7)))
    code, out, _ = run(capsys, "factor", "--a", "1", "--b", str(10**20), str(k4))
    assert code == 0 and load_factor(out)[0] == 6


def test_chi_cf_c5(tmp_path, capsys):
    c5 = tmp_path / "c5.hg"
    run(capsys, "gen", "--construction", "odd_cycle", "--n", "5", "-o", str(c5))
    code, out, _ = run(capsys, "chi-cf", str(c5))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3"
    witness = load_coloring("\n".join(lines[1:]))
    assert witness.palette == 3


def test_chi_cf_above_max_k(tmp_path, capsys):
    k4 = tmp_path / "k4.hg"
    run(capsys, "gen", "--construction", "complete_graph", "--n", "4",
        "-o", str(k4))
    code, out, _ = run(capsys, "chi-cf", "--max-k", "3", str(k4))
    assert code == 1
    assert out.strip() == "above 3"


def test_chi_cf_characterize_mode(tmp_path, capsys):
    k5 = tmp_path / "k5.hg"
    run(capsys, "gen", "--construction", "complete_graph", "--n", "5",
        "-o", str(k5))
    d = tmp_path / "dk5.hg"
    assert run(capsys, "dual", str(k5), "-o", str(d))[0] == 0
    code, out, _ = run(capsys, "chi-cf", "--mode", "characterize-4u", str(d))
    assert code == 0
    assert out.splitlines()[0] == "3"


def test_color_verify_loop(tmp_path, capsys):
    hg = tmp_path / "x.hg"
    col = tmp_path / "x.col"
    run(capsys, "gen", "--construction", "two_cliques", "--delta", "3",
        "-o", str(hg))
    for algo in ("greedy", "exact"):
        code, _, _ = run(capsys, "color", "--algo", algo, str(hg),
                         "-o", str(col))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(hg), str(col))
        assert code == 0 and out == ""


def test_color_four(tmp_path, capsys):
    hg = tmp_path / "g.hg"
    col = tmp_path / "g.col"
    run(capsys, "gen", "--construction", "k4e_gadget", "--r", "4", "-o", str(hg))
    # 2-uniform/4-edge mix is not 4-uniform, so use the dual of K5 instead
    k5 = tmp_path / "k5.hg"
    run(capsys, "gen", "--construction", "complete_graph", "--n", "5",
        "-o", str(k5))
    run(capsys, "dual", str(k5), "-o", str(hg))
    code, _, _ = run(capsys, "color", "--algo", "four", str(hg), "-o", str(col))
    assert code == 0
    assert run(capsys, "verify", str(hg), str(col))[0] == 0


def test_color_lll_deterministic(tmp_path, capsys):
    hg = tmp_path / "r.hg"
    edges = ["%d %d %d %d %d" % (i, i + 1, i + 2, i + 3, i + 4)
             for i in range(1, 16)]
    hg.write_text("hypergraph 20 15\n" + "\n".join(edges) + "\n")
    c1 = tmp_path / "c1.col"
    c2 = tmp_path / "c2.col"
    for target in (c1, c2):
        code, _, _ = run(capsys, "color", "--algo", "lll", "--colors", "8",
                         "--seed", "42", str(hg), "-o", str(target))
        assert code == 0
    assert c1.read_text() == c2.read_text()
    assert run(capsys, "verify", str(hg), str(c1))[0] == 0


def test_color_lll_exhausted(tmp_path, capsys):
    hg = tmp_path / "e.hg"
    hg.write_text("hypergraph 4 1\n1 2 3 4\n")
    code, _, err = run(capsys, "color", "--algo", "lll", "--colors", "1",
                       "--max-resamples", "5", str(hg),
                       "-o", str(tmp_path / "e.col"))
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("text, palette", [
    # a perfect matching: max degree 1, covered by the bound at degree 2
    ("hypergraph 6 3\n1 2\n3 4\n5 6\n", color_bound(2, 2)),
    # a 1-uniform hypergraph: its one vertex is unique in every edge
    ("hypergraph 3 4\n1\n2\n3\n3\n", 1),
    # no edges at all
    ("hypergraph 3 0\n", 1),
])
def test_color_lll_default_palette_edge_cases(tmp_path, capsys, text, palette):
    hg = tmp_path / "x.hg"
    col = tmp_path / "x.col"
    hg.write_text(text)
    code, _, err = run(capsys, "color", "--algo", "lll", str(hg), "-o", str(col))
    assert (code, err) == (0, "")
    assert load_coloring(col.read_text()).palette <= palette
    assert run(capsys, "verify", str(hg), str(col)) == (0, "", "")


def test_color_lll_default_palette_nonuniform(tmp_path, capsys):
    hg = tmp_path / "x.hg"
    hg.write_text("hypergraph 3 2\n1 2\n1 2 3\n")
    code, _, err = run(capsys, "color", "--algo", "lll", str(hg),
                       "-o", str(tmp_path / "x.col"))
    assert code == 65
    assert "uniform" in err


def test_coloring_never_computes_edge_degree(tmp_path, capsys, monkeypatch):
    col = tmp_path / "x.col"
    lll = tmp_path / "lll.hg"
    lll.write_text(save_hypergraph(
        random_uniform_hypergraph(random.Random(3), 200, 8, 30, 600)))
    # the 4-uniform corpus has max degree 3; the second one peels degree 5
    four = [connected_4uniform_corpus()[0],
            random_uniform_hypergraph(random.Random(4), 60, 4, 5, 70)]
    for i, h in enumerate(four):
        (tmp_path / f"four{i}.hg").write_text(save_hypergraph(h))

    def refuse(self):
        raise AssertionError("max_edge_degree computed")

    monkeypatch.setattr(Hypergraph, "max_edge_degree", property(refuse))
    assert run(capsys, "color", "--algo", "lll", str(lll), "-o", str(col))[0] == 0
    for i in range(len(four)):
        assert run(capsys, "color", "--algo", "four",
                   str(tmp_path / f"four{i}.hg"), "-o", str(col))[0] == 0
    # the patch is live: the stats command does read the edge degree
    with pytest.raises(AssertionError, match="max_edge_degree"):
        main(["stats", str(lll)])


def test_verify_reports_bad_edges(tmp_path, capsys):
    hg = tmp_path / "c5.hg"
    col = tmp_path / "bad.col"
    run(capsys, "gen", "--construction", "odd_cycle", "--n", "5", "-o", str(hg))
    col.write_text("coloring 5\n1 2 1 2 1\n")
    code, out, _ = run(capsys, "verify", str(hg), str(col))
    assert code == 1
    assert out.splitlines() == ["5"]


def test_byte_order_mark_is_accepted(tmp_path, capsys):
    # editors on Windows often start UTF-8 files with a byte-order mark
    hg = tmp_path / "bom.hg"
    col = tmp_path / "bom.col"
    hg.write_bytes(b"\xef\xbb\xbfhypergraph 3 1\n1 2 3\n")
    col.write_bytes(b"\xef\xbb\xbfcoloring 3\n1 2 2\n")
    code, out, err = run(capsys, "stats", str(hg))
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["n 3", "m 1"]
    assert run(capsys, "verify", str(hg), str(col)) == (0, "", "")


def test_dual_roundtrip(tmp_path, capsys):
    hg = tmp_path / "g.hg"
    d = tmp_path / "d.hg"
    dd = tmp_path / "dd.hg"
    run(capsys, "gen", "--construction", "g_tr", "--t", "1", "--r", "7",
        "-o", str(hg))
    assert run(capsys, "dual", str(hg), "-o", str(d))[0] == 0
    assert run(capsys, "dual", str(d), "-o", str(dd))[0] == 0
    assert hg.read_text() == dd.read_text()


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.hg"
    bad.write_text("hypergraph 2 1\n1 1\n")
    code, _, err = run(capsys, "stats", str(bad))
    assert code == 65
    assert "repeated" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "gen", "--construction", "nope", "-o", "x")
    assert code == 64


def test_missing_file_exit_code(capsys):
    code, _, _ = run(capsys, "stats", "/nonexistent/file.hg")
    assert code == 64  # click validates the path before the command runs
