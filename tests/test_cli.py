"""End-to-end command-line behavior through cli.run."""

import functools
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

from nbkemeny import census, cli, engine, gen_complete, to_graph6
from nbkemeny.cli import parse_generator_spec


def invoke(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    # argparse's own usage errors exit 1 here: 2 means a failed cross-check
    @pytest.mark.parametrize("argv", [
        ["compute", "--mode", "bogus", "complete:4"],
        ["compute", "complete:4", "--bogus"],
        [],
    ])
    def test_usage_error_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_tol_rejected(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            cli.run(["compute", "complete:4", "--tol", tol])
        assert exc.value.code == 1
        assert "--tol" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["--help"])
        assert exc.value.code == 0
        assert "compute" in capsys.readouterr().out


class TestGeneratorSpec:
    def test_families(self):
        assert parse_generator_spec("complete:4").m == 6
        assert parse_generator_spec("bipartite:2,3").m == 6
        assert parse_generator_spec("cycle:7").n == 7
        assert parse_generator_spec("path:4").m == 3
        assert parse_generator_spec("necklace:2").n == 10
        assert parse_generator_spec("barbell:3,4,6").n == 11

    def test_graph6_fallback(self):
        g = parse_generator_spec("C~")
        assert g.n == 4 and g.m == 6

    def test_bad_arity(self):
        with pytest.raises(cli.CliError):
            parse_generator_spec("barbell:3,4")

    def test_bad_integer(self):
        with pytest.raises(cli.CliError):
            parse_generator_spec("cycle:x")

    def test_unknown_name_lists_families(self):
        with pytest.raises(cli.CliError, match="complete, bipartite"):
            parse_generator_spec("wheel:5")

    @pytest.mark.parametrize("argv", [
        ["generate", "complete:,5"],
        ["generate", "bipartite:2,,3"],
        ["compute", "barbell:2,15,15,"],
        ["closed-form", "barbell", "2,15,15,"],
        ["closed-form", "necklace", "10,"],
    ])
    def test_empty_field_rejected(self, capsys, argv):
        # generator specs and closed-form arguments share one parser
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert "integer argument(s)" in err

    @pytest.mark.parametrize("argv", [
        ["generate", "complete:1_0"],
        ["generate", "complete: 5"],
        ["generate", "cycle:+6"],
        ["closed-form", "necklace", "1_0"],
    ])
    def test_only_plain_digits_are_integers(self, capsys, argv):
        # int() alone would read these as 10, 5, 6 and 10
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert "needs integers" in err


class TestCompute:
    def test_barbell_json(self, capsys):
        code, out, err = invoke(capsys, "compute", "barbell:3,4,6")
        assert code == 0
        payload = json.loads(out)
        assert payload["kemeny"] == {"vertex": "49/2", "edge": "75/2",
                                     "non-backtracking": "88/3"}
        assert payload["identity_exact"] is True

    def test_csv_output(self, capsys):
        code, out, err = invoke(capsys, "compute", "barbell:3,4,6",
                                "--output", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "quantity,value"
        assert "k_nb,88/3" in lines

    def test_graph6_positional(self, capsys):
        code, out, _ = invoke(capsys, "compute", "C~")
        assert code == 0
        assert json.loads(out)["kemeny"]["vertex"] == "9/4"

    def test_stdin_input(self, capsys, monkeypatch):
        data = to_graph6(gen_complete(4)).encode()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, _ = invoke(capsys, "compute", "--input", "-")
        assert code == 0
        assert json.loads(out)["kemeny"]["edge"] == "41/4"

    def test_long_form_input(self, capsys, tmp_path):
        # a 200-vertex cubic graph needs graph6's long form
        G = nx.random_regular_graph(3, 200, seed=1)
        path = tmp_path / "cubic200.g6"
        path.write_bytes(nx.to_graph6_bytes(G, header=False))
        code, out, _ = invoke(capsys, "compute", "--input", str(path))
        assert code == 0
        report = json.loads(out)
        assert (report["n"], report["m"], report["modes"]["edge"]) == (200, 300, "float")

    def test_byte_deterministic(self, capsys):
        _, out1, _ = invoke(capsys, "compute", "necklace:3")
        _, out2, _ = invoke(capsys, "compute", "necklace:3")
        assert out1 == out2

    def test_cycle_rejected(self, capsys):
        code, out, err = invoke(capsys, "compute", "cycle:5")
        assert code == 1
        assert "reducible" in err

    def test_degree_one_rejected(self, capsys):
        code, _, err = invoke(capsys, "compute", "path:4")
        assert code == 1
        assert "degree" in err

    def test_exact_cap_refused(self, capsys):
        # necklace:5 has 22 vertices and 66 oriented edges
        code, _, err = invoke(capsys, "compute", "necklace:5",
                              "--mode", "exact")
        assert code == 1
        assert "64" in err

    def test_missing_graph(self, capsys):
        code, _, err = invoke(capsys, "compute")
        assert code == 1
        assert "generator" in err

    def test_malformed_graph6_file(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("!!nonsense!!\n")
        code, _, err = invoke(capsys, "compute", "--input", str(path))
        assert code == 1
        assert "graph6" in err

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "compute", "--input", "/no/such/file")
        assert code == 1

    def test_graph_beside_input_rejected(self, capsys, tmp_path):
        path = tmp_path / "k4.g6"
        path.write_text(to_graph6(gen_complete(4)) + "\n")
        code, out, err = invoke(capsys, "compute", "complete:5", "--input", str(path))
        assert code == 1 and out == ""
        assert "--input" in err

    # a census skips such a line instead (TestCensus.test_non_ascii_line_skipped)
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_ascii_file(self, capsys, tmp_path, monkeypatch, source):
        data = b"\xff\n"
        if source == "file":
            path = tmp_path / "bad.g6"
            path.write_bytes(data)
            arg = str(path)
        else:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
            arg = "-"
        code, _, err = invoke(capsys, "compute", "--input", arg)
        assert code == 1
        assert err.startswith("error:") and repr(arg) in err
        assert "non-ASCII byte at offset 0" in err
        assert "Traceback" not in err

    def test_impossible_tolerance_fails_crosscheck(self, capsys):
        # float routes cannot agree to 1e-30, so the report must fail
        code, out, err = invoke(capsys, "compute", "necklace:5",
                                "--mode", "float", "--tol", "1e-30")
        assert code == 2
        assert "cross-check" in err
        # the report itself is still printed for inspection
        assert json.loads(out)["failed"] is True

    @pytest.mark.parametrize("spec", ["barbell:100,4,4", "barbell:2,150,150"])
    def test_long_barbells_pass_crosscheck(self, capsys, spec):
        # their float route gaps of about 1e-8 exceed tol but sit well
        # inside tol * (K/256)^2
        code, out, err = invoke(capsys, "compute", spec)
        assert code == 0, err
        assert json.loads(out)["failed"] is False

    def test_exact_route_gap_below_tol_fails_crosscheck(self, capsys, monkeypatch):
        charpoly = engine.kemeny_charpoly
        monkeypatch.setattr(engine, "kemeny_charpoly",
                            lambda P: charpoly(P) + Fraction(1, 10**12))
        code, out, err = invoke(capsys, "compute", "barbell:2,3,3", "--mode", "exact")
        assert code == 2
        assert "cross-check" in err
        assert json.loads(out)["failed"] is True


class TestMatrices:
    def test_help_states_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["matrices", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "serialization format (default csv)" in out
        assert "exact at every size unless --mode float" in out

    def test_large_matrix_is_exact_in_auto_mode(self, capsys):
        # 380 states, far above compute's auto-exact cap
        code, out, _ = invoke(capsys, "matrices", "complete:20",
                              "--kind", "edge")
        assert code == 0
        assert "1/19" in out.split("\n")[0]

    def test_vertex_csv_default(self, capsys):
        code, out, _ = invoke(capsys, "matrices", "complete:4")
        assert code == 0
        rows = out.strip().split("\n")
        assert len(rows) == 4
        assert rows[0].split(",") == ["0", "1/3", "1/3", "1/3"]

    def test_json_shape(self, capsys):
        code, out, _ = invoke(capsys, "matrices", "complete:4",
                              "--kind", "non-backtracking",
                              "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "non-backtracking"
        assert payload["shape"] == [12, 12]

    def test_float_mode(self, capsys):
        code, out, _ = invoke(capsys, "matrices", "complete:4",
                              "--mode", "float")
        assert code == 0
        assert "0.333333333333" in out
        assert "1/3" not in out

    @pytest.mark.parametrize("kind", [
        "adjacency", "degree", "edge-adjacency", "nb-adjacency",
        "edge-degree", "incidence-T", "incidence-S", "reversal",
    ])
    def test_integer_kinds_print_integers(self, capsys, kind):
        # exact integer matrices hold ints, which print as "1", not "1/1"
        code, out, _ = invoke(capsys, "matrices", "complete:4", "--kind", kind)
        assert code == 0
        assert "/" not in out

    def test_graph_beside_input_rejected(self, capsys, tmp_path):
        path = tmp_path / "k4.g6"
        path.write_text(to_graph6(gen_complete(4)) + "\n")
        code, out, err = invoke(capsys, "matrices", "complete:5", "--input", str(path))
        assert code == 1 and out == ""
        assert "--input" in err

    def test_nb_needs_min_degree(self, capsys):
        code, _, err = invoke(capsys, "matrices", "path:4",
                              "--kind", "non-backtracking")
        assert code == 1


class TestClosedForm:
    def test_necklace(self, capsys):
        code, out, _ = invoke(capsys, "closed-form", "necklace", "10")
        assert code == 0
        payload = json.loads(out)
        assert payload["k_vertex"] == "103/5"
        assert payload["k_nb"] == "156/5"

    def test_barbell(self, capsys):
        code, out, _ = invoke(capsys, "closed-form", "barbell", "2,15,15")
        assert code == 0
        assert json.loads(out)["k_nb"] == "5161/62"

    def test_barbell_edge_max(self, capsys):
        code, out, _ = invoke(capsys, "closed-form", "barbell-edge-max", "30")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 26 and payload["a"] == 3 and payload["b"] == 3
        assert payload["k_edge"] == "63371/186"

    def test_barbell_nb_max(self, capsys):
        code, out, _ = invoke(capsys, "closed-form", "barbell-nb-max", "30")
        assert code == 0
        payload = json.loads(out)
        assert (payload["k"], payload["a"], payload["b"]) == (2, 15, 15)
        assert payload["k_nb"] == "5161/62"

    def test_regular_with_spec(self, capsys):
        code, out, _ = invoke(capsys, "closed-form", "regular", "complete:5")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["k_edge"]) == pytest.approx(18.2, abs=1e-9)
        names = [c["name"] for c in payload["bounds"]]
        assert "edge-exceeds-nb" in names

    def test_biregular_with_spec(self, capsys):
        code, out, _ = invoke(capsys, "closed-form", "biregular", "bipartite:2,3")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["k_edge"]) == pytest.approx(10.5, abs=1e-9)

    @pytest.mark.parametrize("spec", ["bipartite:1,3", "path:3"])
    def test_biregular_star_rejected(self, capsys, spec):
        # like `compute`, which has no non-backtracking walk to report here
        code, out, err = invoke(capsys, "closed-form", "biregular", spec)
        assert code == 1 and out == ""
        assert "needs min degree >= 2" in err

    def test_csv_rendering(self, capsys):
        code, out, _ = invoke(capsys, "closed-form", "necklace", "10",
                              "--output", "csv")
        assert code == 0
        assert "k_vertex,103/5" in out

    def test_unknown_formula(self, capsys):
        code, _, err = invoke(capsys, "closed-form", "zeta", "3")
        assert code == 1
        assert "unknown formula" in err

    def test_bad_arity(self, capsys):
        code, _, err = invoke(capsys, "closed-form", "barbell", "2,15")
        assert code == 1

    def test_domain_error_is_validation(self, capsys):
        code, _, err = invoke(capsys, "closed-form", "necklace", "12")
        assert code == 1

    def test_regular_from_input(self, capsys, tmp_path):
        path = tmp_path / "k5.g6"
        path.write_text(to_graph6(gen_complete(5)) + "\n")
        code, out, _ = invoke(capsys, "closed-form", "regular",
                              "--input", str(path))
        assert code == 0
        assert float(json.loads(out)["k_edge"]) == pytest.approx(18.2, abs=1e-9)

    @pytest.mark.parametrize("argv", [
        ["necklace", "10"],
        ["barbell", "1,3,3"],
        ["barbell-nb-max", "30"],
    ])
    def test_input_outside_graph_formulas_rejected(self, capsys, argv):
        # the path does not exist: refusing must not depend on reading it
        code, out, err = invoke(capsys, "closed-form", *argv,
                                "--input", "/nonexistent/graph.g6")
        assert code == 1 and out == ""
        assert "--input" in err

    def test_input_beside_positional_graph_rejected(self, capsys, tmp_path):
        path = tmp_path / "k4.g6"
        path.write_text(to_graph6(gen_complete(4)) + "\n")
        for name, spec in (("regular", "complete:5"),
                           ("biregular", "bipartite:2,3")):
            code, out, err = invoke(capsys, "closed-form", name, spec,
                                    "--input", str(path))
            assert code == 1 and out == ""
            assert "--input" in err


class TestSweep:
    def test_csv_default(self, capsys):
        code, out, err = invoke(capsys, "sweep", "--n", "10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,a,b,k_e,k_nb"
        assert len(lines) == 4
        assert "no balanced split for k = [3, 5]" in err

    def test_n30_endpoints(self, capsys):
        code, out, _ = invoke(capsys, "sweep", "--n", "30")
        assert code == 0
        by_k = {line.split(",")[0]: line
                for line in out.strip().split("\n")[1:]}
        assert by_k["26"].split(",")[3] == "63371/186"
        assert by_k["2"].split(",")[4] == "5161/62"

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "sweep", "--n", "10",
                              "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["skipped_k"] == [3, 5]
        assert payload["rows"][0]["k"] == 2

    def test_too_small(self, capsys):
        code, _, err = invoke(capsys, "sweep", "--n", "5")
        assert code == 1

    def test_csv_rows_match_json(self, capsys):
        # n = 17 has an integral row: CB(13, 3, 3) with k_e = 116, k_nb = 29
        code, csv_out, _ = invoke(capsys, "sweep", "--n", "17")
        assert code == 0
        code, json_out, _ = invoke(capsys, "sweep", "--n", "17",
                                   "--output", "json")
        assert code == 0
        csv_rows = csv_out.strip().split("\n")[1:]
        json_rows = [f"{r['k']},{r['a']},{r['b']},{r['k_e']},{r['k_nb']}"
                     for r in json.loads(json_out)["rows"]]
        assert csv_rows == json_rows
        assert "13,3,3,116/1,29/1" in csv_rows


class TestCensus:
    def test_builtin_summary(self, capsys):
        code, out, _ = invoke(capsys, "census", "--n", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"n": 5, "total": 10, "count_nb_ge_e": 10,
                           "equal_list": []}

    def test_csv_records(self, capsys):
        code, out, _ = invoke(capsys, "census", "--n", "4",
                              "--output", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "graph6,n,m,k_e,k_nb,diff_sign"
        assert len(lines) == 3

    def test_corpus_file(self, capsys, tmp_path):
        path = tmp_path / "corpus.g6"
        path.write_text("C~\nCr\nDhc\n")
        code, out, err = invoke(capsys, "census", "--input", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] + len(err.strip().split("\n")) >= 3

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_ascii_line_skipped(self, capsys, tmp_path, monkeypatch, source):
        # one rule for both sources: the bad line is skipped, K5 is counted
        data = b"D~{\n\xff\n"
        if source == "file":
            path = tmp_path / "mixed.g6"
            path.write_bytes(data)
            arg = str(path)
        else:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
            arg = "-"
        code, out, err = invoke(capsys, "census", "--input", arg)
        assert code == 0, err
        assert json.loads(out) == {"n": 5, "total": 1, "count_nb_ge_e": 1,
                                   "equal_list": []}
        assert "\\xff: non-ASCII graph6 byte (byte offset 0)" in err

    def test_needs_exactly_one_source(self, capsys):
        code, _, err = invoke(capsys, "census")
        assert code == 1
        assert "exactly one" in err
        code, _, err = invoke(capsys, "census", "--n", "5",
                              "--input", "x.g6")
        assert code == 1

    def test_byte_deterministic(self, capsys):
        _, out1, _ = invoke(capsys, "census", "--n", "5", "--output", "csv")
        _, out2, _ = invoke(capsys, "census", "--n", "5", "--output", "csv")
        assert out1 == out2

    def test_n8_bytes_pinned(self, capsys, monkeypatch):
        # the census runs once; both renderings go through the console entry
        monkeypatch.setattr(census, "census_nb_vs_edge",
                            functools.cache(census.census_nb_vs_edge))
        previous = signal.getsignal(signal.SIGPIPE) if hasattr(signal, "SIGPIPE") else None
        digests = []
        try:
            for extra in ([], ["--output", "csv"]):
                monkeypatch.setattr(sys, "argv", ["kemeny", "census", "--n", "8", *extra])
                with pytest.raises(SystemExit) as exit_:
                    cli.main()
                assert exit_.value.code == 0
                digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        finally:
            if previous is not None:
                signal.signal(signal.SIGPIPE, previous)
        assert digests == [
            "39d686f2a9d65b69e790552cdc09e9f42a38144a7b5d3912dcfb2b5eb453e7d1",
            "9273a5d92d0b8882949d8f0ca29a0c001250855281943ec3f830438dce2bae4b",
        ]


class TestGenerate:
    def test_round_trip(self, capsys):
        code, out, _ = invoke(capsys, "generate", "complete:4")
        assert code == 0
        assert out.strip() == "C~"

    def test_feeds_back_into_compute(self, capsys):
        _, out, _ = invoke(capsys, "generate", "barbell:3,4,6")
        code, out2, _ = invoke(capsys, "compute", out.strip())
        assert code == 0
        assert json.loads(out2)["kemeny"]["non-backtracking"] == "88/3"

    def test_bad_spec(self, capsys):
        code, _, err = invoke(capsys, "generate", "torus:3")
        assert code == 1


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="platform has no SIGPIPE")
def test_closed_stdout_ends_quietly():
    # 126,000 bytes overflow the pipe buffer, so the writer is still
    # writing when the reader goes away
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "nbkemeny.cli", "matrices", "complete:16", "--kind", "edge"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""
    assert code == -signal.SIGPIPE
