import gc
import io
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import cfhyper
from cfhyper import (
    Hypergraph,
    color_bound,
    dual,
    is_conflict_free,
    load_coloring,
    load_factor,
    load_hypergraph,
    save_hypergraph,
)
from cfhyper import kernels
from cfhyper.cli import main
from cfhyper.constructions import build_g_tr
from cfhyper.kernels import available_backends

from corpus import (
    chain_of_k5,
    connected_4uniform_corpus,
    octahedron,
    random_uniform_hypergraph,
)


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
    # a factor exists, but the 12 blocks need at least 12 kernel queries
    g = tmp_path / "g.hg"
    g.write_text(save_hypergraph(chain_of_k5(12)))
    code, out, _ = run(capsys, "factor", "--a", "1", "--b", "4",
                       "--budget", "3", str(g))
    assert code == 2
    assert out.strip() == "BUDGET"


@pytest.mark.parametrize("text", ["hypergraph 3000000000 1\n3000000000\n",
                                  "hypergraph 2147483647 1\n1\n"], ids=["3e9", "2**31-1"])
@pytest.mark.parametrize("argv", [["stats"], ["color", "--algo", "greedy", "-o", "OUT"]],
                         ids=["stats", "color"])
def test_vertex_count_past_the_limit_is_a_data_error(tmp_path, capsys, text, argv):
    # n past kernels.MAX_N is refused before any per-vertex list is built,
    # on either backend (tier-1 runs this file on each)
    hg = tmp_path / "big.hg"
    hg.write_text(text)
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, str(hg))
    assert time.perf_counter() - start < 1
    assert code == 65 and out == "" and err.startswith("data error: vertex count")
    assert not (tmp_path / "out").exists()


def test_factor_refutes_g_tr_1_11(tmp_path, capsys):
    g = tmp_path / "g.hg"
    run(capsys, "gen", "--construction", "g_tr", "--t", "1", "--r", "11",
        "-o", str(g))
    code, out, err = run(capsys, "factor", "--a", "1", "--b", "10", str(g))
    assert code == 1
    assert out.strip() == "NONE"
    assert "parity" not in err


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


@pytest.mark.parametrize("mode", ["exact", "characterize-4u"])
def test_chi_cf_of_the_empty_hypergraph(tmp_path, capsys, mode):
    # no vertex: 0 colors, the empty coloring's palette, in either mode
    hg = tmp_path / "empty.hg"
    hg.write_text("hypergraph 0 0\n")
    assert run(capsys, "chi-cf", "--mode", mode, str(hg)) == (0, "0\ncoloring 0\n", "")


def test_chi_cf_dual_of_g_tr(tmp_path, capsys):
    # the paper's counterexample: no {1,6}-factor, so its dual needs 3
    g, d = tmp_path / "g.hg", tmp_path / "d.hg"
    assert run(capsys, "gen", "--construction", "g_tr", "--t", "1", "--r", "7",
               "-o", str(g))[0] == 0
    assert run(capsys, "dual", str(g), "-o", str(d))[0] == 0
    code, out, _ = run(capsys, "chi-cf", str(d))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3"
    witness = load_coloring("\n".join(lines[1:]))
    assert witness.palette == 3
    assert is_conflict_free(load_hypergraph(d.read_text()), witness) == []


@pytest.mark.parametrize("mode", ["exact", "characterize-4u"])
def test_chi_cf_budget(tmp_path, capsys, monkeypatch, mode):
    # the duality's factor search runs out of nodes: exit 2, no traceback
    monkeypatch.setattr(kernels, "solve_degree_constrained",
                        lambda n, eu, ev, allowed, budget: (kernels.BUDGET, None, budget + 1))
    d = tmp_path / "d.hg"
    d.write_text(save_hypergraph(dual(octahedron())))
    code, out, err = run(capsys, "chi-cf", "--mode", mode, str(d))
    assert code == 2
    assert out.strip() == "BUDGET"
    assert "budget" in err and "Traceback" not in err


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


def test_invalid_utf8_is_an_input_error(tmp_path, capsys):
    bad_hg = tmp_path / "bad.hg"
    bad_hg.write_bytes(b"hypergraph 2 1\n1 \xff2\n")
    code, out, err = run(capsys, "stats", str(bad_hg))
    assert (code, out) == (65, "")
    assert err == "input error: line 2, column 2: invalid UTF-8 byte 0xff\n"
    hg = tmp_path / "ok.hg"
    hg.write_bytes(b"hypergraph 2 1\n1 2\n")
    bad_col = tmp_path / "bad.col"
    bad_col.write_bytes(b"coloring 2\n# caf\xe9\n1 2\n")
    code, out, err = run(capsys, "verify", str(hg), str(bad_col))
    assert (code, out) == (65, "")
    assert err == "input error: line 2, column 2: invalid UTF-8 byte 0xe9\n"


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "gen", "--construction", "nope", "-o", "x")
    assert code == 64


@pytest.mark.parametrize("argv", [
    ("chi-cf", "--max-k", "0"),
    ("color", "--algo", "exact", "--colors", "0", "-o", "out.col"),
    ("color", "--algo", "lll", "--colors", "0", "-o", "out.col"),
])
def test_palette_below_one_is_a_usage_error(tmp_path, capsys, argv):
    hg = tmp_path / "e.hg"
    hg.write_text("hypergraph 3 1\n1 2 3\n")
    argv = [str(tmp_path / a) if a == "out.col" else a for a in argv]
    code, out, err = run(capsys, *argv, str(hg))
    assert code == 64
    assert "usage error" in err and "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "out.col").exists()


@pytest.mark.parametrize("argv", [
    ("factor", "--a", "0", "--b", "2"),
    ("factor", "--a", "2", "--b", "1"),
    ("color", "--algo", "lll", "--max-resamples", "0", "-o", "out.col"),
    ("factor", "--a", "1", "--b", "2", "--budget", "0"),
    ("factor", "--a", "1", "--b", "2", "--budget", "-3"),
])
def test_bad_targets_and_round_cap_are_usage_errors(tmp_path, capsys, argv):
    hg = tmp_path / "c4.hg"
    hg.write_text("hypergraph 4 4\n1 2\n2 3\n3 4\n1 4\n")
    argv = [str(tmp_path / a) if a == "out.col" else a for a in argv]
    code, out, err = run(capsys, *argv, str(hg))
    assert code == 64
    assert "usage error" in err and "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "out.col").exists()


def test_count_past_the_digit_limit_is_a_trimmed_usage_error(tmp_path, capsys):
    hg = tmp_path / "c4.hg"
    hg.write_text("hypergraph 4 4\n1 2\n2 3\n3 4\n1 4\n")
    code, out, err = run(capsys, "factor", "--a", "1", "--b", "2", "--budget", "1" * 5000,
                         str(hg))
    assert (code, out) == (64, "")
    assert err == ("usage error: argument --budget: expected an integer >= 1, "
                   f"got '{'1' * 20}...'\n")


def test_missing_file_exit_code(capsys):
    code, _, _ = run(capsys, "stats", "/nonexistent/file.hg")
    assert code == 64  # the parser checks the path before the command runs


def test_in_process_calls_keep_no_streams(tmp_path):
    # main() run in-process, each time with fresh output streams, must not
    # keep those streams or their text alive once it returns
    k4 = tmp_path / "k4.hg"
    k4.write_text(save_hypergraph(Hypergraph.from_edges(
        4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])))

    def calls(count):
        for _ in range(count):
            for argv in (["factor", "--a", "1", "--b", "3", str(k4)],
                         ["stats", str(tmp_path / "missing.hg")]):
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    main(argv)

    calls(5)
    gc.collect()
    tracemalloc.start()
    try:
        calls(200)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 20_000, kept


# The command-line contract, independent of the parser behind it: every
# usage error exits 64 with "usage error: " on stderr and nothing on
# stdout, and every --help exits 0 naming each option of its command.
OPTIONS = {
    "gen": ["--construction", "--t", "--r", "--n", "--delta", "-o",
            "--output", "--roles", "--no-roles"],
    "color": ["--algo", "--colors", "--seed", "--max-resamples", "-o",
              "--output"],
    "verify": [],
    "dual": ["-o", "--output"],
    "factor": ["--a", "--b", "--budget"],
    "chi-cf": ["--max-k", "--mode"],
    "stats": [],
}


@pytest.mark.parametrize("argv, code", [
    ((), 64),
    (("nope",), 64),
    (("stats",), 64),
    (("stats", "MISSING"), 64),
    (("stats", "DIR"), 64),
    (("color", "--algo", "greedy", "FILE", "-o", "DIR"), 64),
    (("color", "--algo", "x", "FILE", "-o", "OUT"), 64),
    (("color", "--alg", "greedy", "FILE", "-o", "OUT"), 64),
    (("factor", "--a", "x", "--b", "2", "FILE"), 64),
    (("factor", "--a", "0", "--b", "2", "FILE"), 64),
    (("stats", "FILE", "extra"), 64),
    (("--version",), 64),
    (("gen", "--construction", "odd_cycle", "-o", "OUT"), 64),
    (("--help",), 0),
    *[((command, "--help"), 0) for command in OPTIONS],
    # last, so the rows above keep their ids
    (("factor", "--a", "1", "--b", "2", "--budget", "1" * 5000, "FILE"), 64),
])
def test_cli_contract(tmp_path, capsys, argv, code):
    hg = tmp_path / "c4.hg"
    hg.write_text("hypergraph 4 4\n1 2\n2 3\n3 4\n1 4\n")
    paths = {"FILE": hg, "DIR": tmp_path, "OUT": tmp_path / "out",
             "MISSING": tmp_path / "missing.hg"}
    argv = [str(paths.get(a, a)) for a in argv]
    got, out, err = run(capsys, *argv)
    assert got == code
    assert not paths["OUT"].exists()
    if code == 64:
        assert out == "" and err.startswith("usage error: ")
        return
    assert err == ""
    names = OPTIONS[argv[0]] if len(argv) == 2 else list(OPTIONS)
    for name in names + ["--help"]:
        assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", out), name


def test_cli_has_no_runtime_dependency():
    env = dict(os.environ, PYTHONPATH=str(Path(cfhyper.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c",
         "import cfhyper.cli, sys; sys.exit('click' in sys.modules)"],
        env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
