"""Canonical forms, the exhaustive census, and the barbell sweep."""

import errno
import hashlib
import os
import random
import signal
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from nbkemeny import (
    BarbellParams,
    CensusError,
    GraphError,
    barbell_kemeny,
    barbell_sweep,
    build_matrix,
    canonical_graph,
    canonical_graph6,
    canonical_labeling,
    census_csv,
    census_nb_vs_edge,
    census_summary,
    enumerate_graphs,
    from_edge_list,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_cycle_barbell,
    gen_path,
    kemeny_mfpt,
    kemeny_spectrum,
    nb_walk_defect,
    parse_graph6,
    sweep_csv,
    sweep_skipped,
    to_graph6,
)
from nbkemeny import census, cli, engine
from nbkemeny.engine import DEFAULT_TOL, agree
from nbkemeny.graphs import from_masks, masks_connected

import census_reference as reference
from conftest import PETERSEN_EDGES, random_connected, random_cubic, random_min2, to_networkx


def relabel(g, perm):
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def atlas_masks(max_n, connected_only):
    """Adjacency row masks of every graph in the atlas on 1..max_n
    vertices."""
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if not 1 <= n <= max_n or (connected_only and not nx.is_connected(h)):
            continue
        adj = [0] * n
        for u, v in h.edges():
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        yield n, adj


def named_masks():
    for g in (from_edge_list(10, PETERSEN_EDGES), gen_complete_bipartite(3, 3)):
        yield g.n, g.masks


class TestCanonicalForm:
    def test_certificate_encoding_matches_graph_encoding(self, petersen):
        # canonical_graph6 encodes the certificate, to_graph6 the Graph
        graphs = [petersen]
        for h in nx.graph_atlas_g():
            if h.number_of_nodes() >= 1 and nx.is_connected(h):
                graphs.append(from_edge_list(h.number_of_nodes(), h.edges()))
        assert len(graphs) == 1 + 1 + 1 + 2 + 6 + 21 + 112 + 853
        for g in graphs:
            assert canonical_graph6(g) == to_graph6(canonical_graph(g))

    def test_labeling_is_permutation(self, petersen):
        lab = canonical_labeling(petersen)
        assert sorted(lab) == list(range(10))

    def test_invariant_under_relabeling(self, petersen):
        rng = random.Random(7)
        want = canonical_graph6(petersen)
        for _ in range(20):
            perm = list(range(10))
            rng.shuffle(perm)
            assert canonical_graph6(relabel(petersen, perm)) == want

    def test_invariant_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randrange(4, 10)
            g = random_connected(n, rng, extra_edges=rng.randrange(0, n))
            want = canonical_graph6(g)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_graph6(relabel(g, perm)) == want

    def test_distinguishes_nonisomorphic(self):
        # same degree sequence, different graphs
        g1 = gen_cycle(6)
        g2 = from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert canonical_graph6(g1) != canonical_graph6(g2)

    def test_canonical_graph_is_isomorphic_copy(self, petersen):
        cg = canonical_graph(petersen)
        assert cg.n == 10 and cg.m == 15
        assert sorted(cg.degrees) == sorted(petersen.degrees)
        assert canonical_graph6(cg) == canonical_graph6(petersen)

    def test_complete_graph_fixed_point(self):
        g = gen_complete(6)
        assert canonical_graph(g).edges == g.edges

    def test_search_matches_reference(self):
        # same certificate and vertex order as the tuple-keyed search
        rng = random.Random(5)
        cases = list(named_masks())
        for n, adj in atlas_masks(7, connected_only=True):
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                moved = [0] * n
                for u in range(n):
                    for v in range(n):
                        if adj[u] >> v & 1:
                            moved[perm[u]] |= 1 << perm[v]
                cases.append((n, moved))
        assert len(cases) == 2 + 3 * 996
        for n, adj in cases:
            cert, order, _ = census._canonical_core(n, adj)
            assert (cert, order) == reference._canonical_core(n, adj), adj

    def test_recorded_automorphisms_preserve_edges(self):
        checked = 0
        for n, adj in [*atlas_masks(6, connected_only=False), *named_masks()]:
            edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                     if adj[u] >> v & 1}
            for image in census._canonical_core(n, adj)[2]:
                assert sorted(image) == list(range(n))
                assert {tuple(sorted((image[u], image[v])))
                        for u, v in edges} == edges, (adj, image)
                checked += 1
        assert checked > 500

    def test_oversized_graph_refused_before_search(self, monkeypatch):
        # the 6-cube (n = 64) has no short-form graph6 string; its search
        # alone would take tens of seconds
        cube = from_edge_list(64, [(u, u ^ 1 << i) for u in range(64)
                                   for i in range(6) if u < u ^ 1 << i])

        def no_search(*args):
            raise AssertionError("canonical search ran")

        monkeypatch.setattr(census, "_canonical_core", no_search)
        with pytest.raises(GraphError, match="n <= 62, got n=64"):
            canonical_graph6(cube)

    def test_census_skips_graphs_too_large_to_search(self, monkeypatch):
        # graph6's long form reads the 6-cube; the census skips it unsearched
        cube = from_edge_list(64, [(u, u ^ 1 << i) for u in range(64)
                                   for i in range(6) if u < u ^ 1 << i])

        def no_search(*args):
            raise AssertionError("canonical search ran")

        monkeypatch.setattr(census, "_canonical_core", no_search)
        text = to_graph6(cube)
        assert text.startswith("~?@?")
        result = census_nb_vs_edge([text])
        assert result.records == ()
        assert result.skipped == ((text, "canonical form limited to n <= 62, got n=64"),)


class TestEnumeration:
    # connected simple graphs on n vertices, a classical count
    CONNECTED = {4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
    # after the min-degree >= 2 and no-cycle filters
    CORPUS = {4: 2, 5: 10, 6: 60, 7: 506}

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_connected_counts_match_atlas(self, n):
        atlas = nx.graph_atlas_g()
        want = sum(1 for h in atlas
                   if h.number_of_nodes() == n and nx.is_connected(h))
        got = len(list(enumerate_graphs(n)))
        assert got == want == self.CONNECTED[n]

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_representatives_match_unpruned_enumeration(self, n):
        # the same classes as augmenting every non-edge, each once; the
        # representatives and their order differ
        got = Counter(canonical_graph6(g) for g in enumerate_graphs(n))
        want = Counter(canonical_graph6(g)
                       for g in reference.enumerate_graphs(n, 0, False))
        assert got == want
        assert set(got.values()) == {1}
        assert len(got) == self.CONNECTED[n]

    def test_representatives_pinned_at_n8(self):
        # the unpruned enumerator is too slow to rerun here; the count is
        # OEIS A001349
        got = list(enumerate_graphs(8))
        assert len(got) == self.CONNECTED[8]
        # the class set, as the breadth-first enumerator it replaced found it
        names = "\n".join(sorted(canonical_graph6(g) for g in got))
        assert hashlib.sha256(names.encode()).hexdigest() == (
            "ea17e7bc10272221ed8804d888a102402e979b702ac60c76d7abaea473bde2cc")
        # the depth-first sequence itself, each kept child then its complement
        edges = repr([g.edges for g in got])
        assert hashlib.sha256(edges.encode()).hexdigest() == (
            "7b4ef58ad2b92ee2d3f1db9e8df9318f32d87444ab3467ee630d1fa70e6360a5")

    def test_search_stops_at_half_the_edges(self, monkeypatch):
        # a class above half the n(n-1)/2 edges is the complement of one
        # below, so no canonical search runs on it
        core = census._canonical_core
        calls = []

        def counted(n, adj):
            m = sum(row.bit_count() for row in adj) // 2
            assert 2 * m <= n * (n - 1) // 2, adj
            calls.append(n)
            return core(n, adj)

        monkeypatch.setattr(census, "_canonical_core", counted)
        for n in range(1, 9):
            for _ in census._search(n):
                pass
        # 21729 with the search run to the complete graph
        assert calls.count(8) == 11966

    def test_key_pretest_only_skips_rejected_children(self, monkeypatch):
        # without the pretest every child is searched and the orbit rule
        # alone decides: the same graphs in the same order
        want = [list(census._search(n)) for n in range(1, 8)]
        monkeypatch.setattr(census, "_outranked", lambda *args: False)
        assert [list(census._search(n)) for n in range(1, 8)] == want

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_corpus_counts(self, n):
        graphs = [g for g in enumerate_graphs(n) if nb_walk_defect(g) is None]
        assert len(graphs) == self.CORPUS[n]

    def test_yields_are_filtered_and_distinct(self):
        seen = set()
        for g in enumerate_graphs(5):
            assert g.is_connected()
            if nb_walk_defect(g) is not None:
                continue
            assert min(g.degrees) >= 2
            assert set(g.degrees) != {2}
            seen.add(canonical_graph6(g))
        assert len(seen) == self.CORPUS[5]

    def test_mask_connectivity_matches_networkx(self, monkeypatch):
        # every labelled graph on n <= 5 vertices
        for n in range(1, 6):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for bits in range(1 << len(pairs)):
                g = from_edge_list(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
                assert masks_connected(g.masks) == nx.is_connected(to_networkx(g))
        # every graph the search keeps on n <= 8 vertices, as it tests them
        tally = {True: 0, False: 0}

        def checked(adj):
            got = masks_connected(adj)
            assert got == nx.is_connected(to_networkx(from_masks(adj))), adj
            tally[got] += 1
            return got

        monkeypatch.setattr(census, "masks_connected", checked)
        for n in range(1, 9):
            for _ in census._search(n):
                pass
        # graphs on 1..8 vertices (OEIS A000088), connected ones A001349
        assert tally[True] == 1 + 1 + 2 + 6 + 21 + 112 + 853 + 11117
        assert tally[False] == (1 + 2 + 4 + 11 + 34 + 156 + 1044 + 12346) - tally[True]

    def test_domain(self):
        for bad in (3, 9):
            with pytest.raises(CensusError):
                list(enumerate_graphs(bad))


@pytest.fixture
def alarm():
    """Fail a test that waits on the enumeration process for over 60 s."""
    def expire(signum, frame):
        raise TimeoutError("enumeration process never answered")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestEnumerationProcess:
    """The search runs in one forked child, which outlives no call, or in
    this process where no child may be forked."""

    def test_no_child_after_census(self, alarm):
        assert census_nb_vs_edge(6).count == 18
        assert_no_child_left()

    def test_no_child_after_close(self, alarm):
        graphs = enumerate_graphs(8)
        next(graphs)
        graphs.close()
        assert_no_child_left()

    def test_no_child_after_consumer_error(self, alarm):
        with pytest.raises(ZeroDivisionError):
            for i, g in enumerate(enumerate_graphs(7)):
                if i == 100:
                    1 / 0
        assert_no_child_left()

    def test_child_error_reaches_caller(self, alarm, monkeypatch):
        def broken(n):
            yield [(0,) * n]
            raise RuntimeError("search failed")

        monkeypatch.setattr(census, "_search", broken)
        seen = []
        with pytest.raises(RuntimeError, match="search failed"):
            for g in enumerate_graphs(6):
                seen.append(g)
        assert seen == [from_masks((0,) * 6)]
        assert_no_child_left()

    def test_unpicklable_child_error_becomes_census_error(self, alarm, monkeypatch):
        class Local(Exception):  # a local class does not pickle
            pass

        def broken(n):
            raise Local("not sendable")
            yield

        monkeypatch.setattr(census, "_search", broken)
        with pytest.raises(CensusError, match="Local.*not sendable"):
            list(enumerate_graphs(6))
        assert_no_child_left()

    def test_silent_child_death_reaches_caller(self, alarm, monkeypatch):
        monkeypatch.setattr(census, "_search", lambda n: os._exit(3))
        with pytest.raises(CensusError, match="exited with status 3"):
            list(enumerate_graphs(6))
        assert_no_child_left()

    def test_child_changes_no_value(self):
        # the same graphs evaluated in this process, floats compared exactly
        want = []
        for rows in census._search(7):
            for adj in rows:
                g = from_masks(adj)
                if nb_walk_defect(g) is None:
                    want.append(census._evaluate(g))
        want.sort(key=lambda r: (r.n, r.m, r.graph_id))
        assert census_nb_vs_edge(7).records == tuple(want)

    def test_in_process_search_without_fork(self, monkeypatch):
        # one CPU: no fork is attempted, and the records are the child's
        forked = census_nb_vs_edge(7).records

        def no_fork():
            raise AssertionError("the census forked on one CPU")

        monkeypatch.setattr(engine, "_cpu_count", lambda: 1)
        monkeypatch.setattr(os, "fork", no_fork)
        assert census_nb_vs_edge(6).count == 18
        assert census_nb_vs_edge(7).records == forked

    @pytest.mark.parametrize("call", ["fork", "pipe"])
    def test_failed_fork_searches_in_process(self, call, monkeypatch):
        # fork(2) fails with EAGAIN at the process limit, pipe(2) with EMFILE
        monkeypatch.setattr(engine, "_cpu_count", lambda: 1)
        want = census_nb_vs_edge(6)
        calls = []

        def refused(*args):
            calls.append(call)
            code = errno.EAGAIN if call == "fork" else errno.EMFILE
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        monkeypatch.setattr(os, call, refused)
        assert census_nb_vs_edge(6) == want
        assert calls == [call]
        assert_no_child_left()

    def test_census_never_imports_multiprocessing(self):
        code = ("import sys\n"
                "from nbkemeny import census_nb_vs_edge\n"
                "assert census_nb_vs_edge(5).count == 10\n"
                "print('multiprocessing' in sys.modules)\n")
        env = dict(os.environ)
        src = str(Path(census.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestCensus:
    def test_builtin_counts(self):
        assert census_nb_vs_edge(4).count == 2
        assert census_nb_vs_edge(5).count == 10

    def test_equality_case_at_n6(self):
        result = census_nb_vs_edge(6)
        assert result.count == 18
        summary = census_summary(result)
        assert summary["n"] == 6
        assert summary["total"] == 60
        assert summary["count_nb_ge_e"] == 18
        assert summary["equal_list"] == [
            canonical_graph6(gen_complete_bipartite(3, 3))]

    @pytest.mark.parametrize("n, digest", [
        (6, "dd9feddaa008dd414f67e848c6861dd98b2a513fd3a2ac70590bf8047a6f720d"),
        (7, "29aa187cd460327e14633758d77e5f7a4136660b24cd4a05c534fed5db27a496"),
    ])
    def test_labels_pinned(self, n, digest):
        # names, sizes and signs only: the float columns rest on LAPACK
        text = "\n".join(f"{r.graph_id},{r.n},{r.m},{r.diff_sign}"
                         for r in census_nb_vs_edge(n).records)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_records_are_sorted_and_consistent(self):
        result = census_nb_vs_edge(5)
        keys = [(r.n, r.m, r.graph_id) for r in result.records]
        assert keys == sorted(keys)
        assert result.skipped == ()
        for r in result.records:
            assert r.diff_sign in ("nb_smaller", "equal", "nb_larger_or_equal")

    def test_spot_check_against_exact_route(self):
        result = census_nb_vs_edge(5)
        for r in result.records[:4]:
            g = parse_graph6(r.graph_id)
            ke = kemeny_mfpt(build_matrix(g, "edge", exact=True))[0]
            assert r.k_e == pytest.approx(float(ke), abs=1e-8)

    def test_float_tie_of_a_non_tie_is_decided_exactly(self, monkeypatch):
        # F}rE? is the nearest non-tie at n = 7: K_e = 1571/77 and
        # K_nb = 5387/264, 1.3e-4 apart; equal floats must not tie it.
        # K_e is read as K_v + 2m - n.  The float values come from the
        # stacked entry, where the vertex walks are n x n and the arc walks
        # 2m x 2m; the exact ones from kemeny_charpoly
        g = parse_graph6("F}rE?")
        shift = 2 * g.m - g.n

        def tied(P):
            return np.full(P.shape[:-2], 20.4 - shift if P.shape[-1] == g.n else 20.4)

        monkeypatch.setattr(census, "kemeny_charpoly_stack", tied)
        record = census._evaluate(g)
        assert (record.k_e, record.k_nb) == (20.4, 20.4)
        assert record.diff_sign == "nb_larger_or_equal"

    def test_exact_tie_survives_float_error(self, monkeypatch):
        # Fs`_o has K_e = K_nb = 33/2; a float K_nb off by 1e-8 relative
        # is beyond the float agreement bound, not beyond the screen
        g = parse_graph6("Fs`_o")
        charpoly = census.kemeny_charpoly_stack

        def nudged(P):
            k = charpoly(P)
            return k * (1 + 1e-8) if P.shape[-1] == 2 * g.m else k

        monkeypatch.setattr(census, "kemeny_charpoly_stack", nudged)
        record = census._evaluate(g)
        assert record.k_nb != record.k_e
        assert record.diff_sign == "equal"

    def test_batches_do_not_move_values(self, monkeypatch):
        # floats compared exactly: one graph per batch, one batch per
        # (n, m), the default budget and graph-by-graph evaluation agree
        want = census_nb_vs_edge(7).records
        for entries in (1, 1 << 30):
            monkeypatch.setattr(census, "BATCH_ENTRIES", entries)
            assert census_nb_vs_edge(7).records == want
        alone = [census._evaluate(g) for g in enumerate_graphs(7)
                 if nb_walk_defect(g) is None]
        assert tuple(sorted(alone, key=lambda r: (r.n, r.m, r.graph_id))) == want

    @pytest.mark.parametrize("entries", [census.BATCH_ENTRIES, 1])
    def test_interleaved_corpus_matches_graph_by_graph(self, monkeypatch, tmp_path, entries):
        # an --input corpus whose sizes interleave, so several (n, m)
        # batches are open at once; the n = 62 graph (2m = 186) fills a
        # batch on its own
        monkeypatch.setattr(census, "BATCH_ENTRIES", entries)
        rng = random.Random(29)
        k4, k33 = gen_complete(4), gen_complete_bipartite(3, 3)
        petersen = from_edge_list(10, PETERSEN_EDGES)
        perm = list(range(6))
        rng.shuffle(perm)
        graphs = [k4, k33, petersen, gen_cycle_barbell(2, 3, 4), k4,
                  random_cubic(census.CANONICAL_MAX_N, rng), relabel(k33, perm),
                  gen_complete(5), petersen, random_min2(9, rng), random_min2(9, rng)]
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("".join(to_graph6(g) + "\n" for g in graphs))
        result = census_nb_vs_edge(cli._input_lines(str(corpus)))
        assert result.skipped == ()
        assert {(r.n, r.m) for r in result.records} == {(g.n, g.m) for g in graphs}
        alone = [census._evaluate(g) for g in graphs]
        assert result.records == tuple(sorted(alone, key=lambda r: (r.n, r.m, r.graph_id)))

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_values_agree_with_spectral_route(self, n):
        # the eigensolver shares no computation with the charpoly route
        for r in census_nb_vs_edge(n).records:
            g = parse_graph6(r.graph_id)
            for walk, k in (("edge", r.k_e), ("non-backtracking", r.k_nb)):
                spectral = kemeny_spectrum(build_matrix(g, walk))
                assert agree(spectral, k, DEFAULT_TOL), (r, walk, spectral)
                assert f"{spectral:.12g}" == f"{k:.12g}", (r, walk, spectral)

    def test_bytes_lines_are_read_as_ascii(self):
        # the lines of a file opened in binary mode, such as nauty's output
        want = census_nb_vs_edge(["D~{", "D~{\n"])
        assert len(want.records) == 2 and want.skipped == ()
        assert census_nb_vs_edge([b"D~{", b"D~{\n"]) == want
        result = census_nb_vs_edge([b"\xff"])
        assert result.records == ()
        assert result.skipped == (
            ("\\xff", "non-ASCII graph6 byte (byte offset 0)"),)

    def test_stream_source(self):
        two_triangles = from_edge_list(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        stream = [
            to_graph6(gen_complete(4)),
            "!!not graph6!!",
            to_graph6(gen_path(4)),
            to_graph6(gen_cycle(5)),
            to_graph6(two_triangles),
            gen_complete_bipartite(2, 3),
        ]
        result = census_nb_vs_edge(stream)
        assert len(result.records) == 2
        assert len(result.skipped) == 4
        reasons = {reason for _, reason in result.skipped}
        assert ("vertex 0 has degree 1; the non-backtracking walk needs "
                "min degree >= 2") in reasons
        assert "graph is a cycle; the non-backtracking walk is reducible" in reasons
        assert "not connected" in reasons

    def test_string_source_refused(self):
        # a bare string would otherwise be read one character per line
        for source in ("Dhc", b"Dhc"):
            with pytest.raises(CensusError, match="one string"):
                census_nb_vs_edge(source)

    def test_csv_shape(self):
        result = census_nb_vs_edge(4)
        text = census_csv(result.records)
        lines = text.strip().split("\n")
        assert lines[0] == "graph6,n,m,k_e,k_nb,diff_sign"
        assert len(lines) == 3


class TestSweep:
    def test_balanced_rows_only(self):
        rows = barbell_sweep(10)
        assert [r.k for r in rows] == [2, 4, 6]
        assert sweep_skipped(10) == [3, 5]
        for r in rows:
            assert r.a + r.b + r.k == 12
            assert r.a >= r.b >= 3

    def test_rows_match_closed_form(self):
        for r in barbell_sweep(12):
            _, ke, knb = barbell_kemeny(BarbellParams(r.k, r.a, r.b))
            assert r.k_e == ke and r.k_nb == knb
            assert isinstance(r.k_e, Fraction)

    def test_row_matches_engine(self):
        row = barbell_sweep(10)[0]
        g = gen_cycle_barbell(row.k, row.a, row.b)
        assert kemeny_spectrum(build_matrix(g, "edge")) == pytest.approx(
            float(row.k_e), abs=1e-8)

    def test_csv_fractions(self):
        text = sweep_csv(barbell_sweep(10))
        lines = text.strip().split("\n")
        assert lines[0] == "k,a,b,k_e,k_nb"
        assert all("/" in line.split(",")[3] for line in lines[1:])

    def test_domain(self):
        with pytest.raises(CensusError):
            barbell_sweep(5)
