"""Graph container, graph6 codec, generators, and structural profiles."""

import random

import networkx as nx
import pytest

from nbkemeny import (
    BarbellParams,
    Graph,
    Graph6Error,
    GraphError,
    from_edge_list,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_cycle_barbell,
    gen_necklace,
    gen_path,
    one_sum,
    parse_graph6,
    profile,
    read_graph6,
    to_graph6,
)

from nbkemeny.graphs import from_masks

from conftest import random_connected, to_networkx


def random_graph(n, rng):
    """A random graph on n vertices, often disconnected, bipartite for
    about half the draws (edges only across a random split)."""
    p = rng.choice((0.5 / n, 1.5 / n, 4 / n, 0.5))
    side = [rng.randrange(2) for _ in range(n)] if rng.random() < 0.5 else [0] * n
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if (side[u] != side[v] or not any(side))
                              and rng.random() < p])


class TestGraph:
    def test_rejects_loop(self):
        with pytest.raises(GraphError, match=r"loop at vertex 0 not allowed"):
            from_edge_list(3, [(0, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(GraphError, match=r"duplicate edge \(0, 1\)"):
            from_edge_list(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            from_edge_list(3, [(0, 3)])

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(GraphError):
            Graph(0, ())

    def test_normalizes_orientation(self):
        g = from_edge_list(4, [(2, 0), (3, 1)])
        assert g.edges == ((0, 2), (1, 3))
        assert g.degrees == (1, 1, 1, 1)

    def test_connectivity(self):
        assert from_edge_list(3, [(0, 1), (1, 2)]).is_connected()
        assert not from_edge_list(4, [(0, 1), (2, 3)]).is_connected()

    def test_two_coloring(self):
        col = gen_complete_bipartite(2, 3).two_coloring()
        assert col is not None
        assert {col[0], col[2]} == {0, 1}
        assert gen_complete(3).two_coloring() is None

    @pytest.mark.parametrize("n", [5, 63, 200])
    def test_masks_match_networkx_and_round_trip(self, n):
        # at n = 63 and 200 a row spans several machine words
        rng = random.Random(n)
        for _ in range(20):
            g = random_graph(n, rng)
            h = to_networkx(g)
            for u in range(n):
                assert g.masks[u] == sum(1 << v for v in h.adj[u])
                assert g.neighbors(u) == frozenset(h.adj[u])
            back = from_masks(g.masks)
            assert back == g and back.masks == g.masks
            assert g.is_connected() == nx.is_connected(h)

    def test_two_coloring_matches_networkx(self):
        rng = random.Random(20261021)
        bipartite = 0
        for _ in range(400):
            g = random_graph(rng.randrange(1, 16), rng)
            h = to_networkx(g)
            col = g.two_coloring()
            assert (col is not None) == nx.is_bipartite(h)
            if col is None:
                continue
            bipartite += 1
            assert all(col[u] != col[v] for u, v in g.edges)
            # components are searched from their lowest vertex, colored 0
            assert all(col[min(c)] == 0 for c in nx.connected_components(h))
        assert 100 < bipartite < 400


class TestGraph6:
    def test_known_encoding(self):
        # C~ is K4 in graph6
        g = parse_graph6("C~")
        assert g.n == 4 and g.m == 6
        assert to_graph6(g) == "C~"

    def test_round_trip_random(self):
        rng = random.Random(20260816)
        for n in range(2, 30, 3):
            g = random_connected(n, rng, extra_edges=n)
            assert parse_graph6(to_graph6(g)) == g

    def test_matches_networkx(self):
        rng = random.Random(7)
        for n in (5, 9, 17, 40, 62):
            g = random_connected(n, rng, extra_edges=n // 2)
            G = nx.Graph()
            G.add_nodes_from(range(g.n))
            G.add_edges_from(g.edges)
            want = nx.to_graph6_bytes(G, header=False).decode().strip()
            assert to_graph6(g) == want
            back = nx.from_graph6_bytes(to_graph6(g).encode())
            assert set(back.edges()) == {tuple(e) for e in g.edges}

    @pytest.mark.parametrize("n", [63, 200])
    def test_long_form_matches_networkx(self, n):
        # n >= 63 is written as byte 126 and three 6-bit bytes
        rng = random.Random(n)
        g = random_connected(n, rng, extra_edges=n)
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges)
        text = nx.to_graph6_bytes(G, header=False).decode().strip()
        assert text[0] == "~"
        assert parse_graph6(text) == g
        assert to_graph6(g) == text

    @pytest.mark.parametrize("text,match", [
        ("~~??????", "order above 258047"),
        ("~?@", "long-form size"),
        ("~??}" + "?" * 316, "at least 63"),
        ("~?@?" + "?" * 325, "truncated"),
    ])
    def test_rejects_bad_long_form(self, text, match):
        with pytest.raises(Graph6Error, match=match):
            parse_graph6(text)

    def test_rejects_order_above_long_form(self):
        with pytest.raises(GraphError, match="n <= 258047, got n=258048"):
            to_graph6(Graph(258048, ()))

    def test_rejects_garbage(self):
        with pytest.raises(Graph6Error):
            parse_graph6("C~~~~")
        with pytest.raises(Graph6Error):
            parse_graph6("\x01bad")
        with pytest.raises(Graph6Error):
            parse_graph6("")

    def test_read_stream_skips_blank_lines(self):
        lines = ["C~", "", "Bw", "  "]
        out = list(read_graph6(lines))
        assert [g.n for g in out] == [4, 3]


class TestGenerators:
    def test_complete(self):
        g = gen_complete(5)
        assert g.n == 5 and g.m == 10
        assert set(g.degrees) == {4}

    def test_complete_bipartite(self):
        g = gen_complete_bipartite(2, 3)
        assert g.n == 5 and g.m == 6
        assert sorted(g.degrees) == [2, 2, 2, 3, 3]
        assert g.two_coloring() is not None

    def test_cycle_and_path(self):
        c = gen_cycle(6)
        assert set(c.degrees) == {2} and c.m == 6
        p = gen_path(6)
        assert sorted(p.degrees) == [1, 1, 2, 2, 2, 2] and p.m == 5

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_necklace_structure(self, k):
        g = gen_necklace(k)
        assert g.n == 4 * k + 2
        assert set(g.degrees) == {3}
        assert g.is_connected()

    def test_necklace_needs_two_beads(self):
        with pytest.raises(GraphError):
            gen_necklace(1)

    @pytest.mark.parametrize("k,a,b", [(1, 3, 3), (2, 3, 4), (5, 4, 6)])
    def test_barbell_counts(self, k, a, b):
        g = gen_cycle_barbell(k, a, b)
        assert g.n == a + b + k - 2
        assert g.m == a + b + k - 1
        assert g.is_connected()
        if k >= 2:
            # the two cut vertices have degree 3, everything else degree 2
            assert sorted(g.degrees).count(3) == 2
        else:
            # both cycles share the single path vertex
            assert sorted(g.degrees).count(4) == 1

    def test_barbell_params_validation(self):
        with pytest.raises(GraphError):
            BarbellParams(0, 3, 3)
        with pytest.raises(GraphError):
            BarbellParams(2, 2, 3)


class TestProfile:
    def test_regular(self):
        p = profile(gen_complete(5))
        assert p.regular_degree == 4
        assert p.is_complete
        assert not p.bipartite

    def test_biregular(self):
        p = profile(gen_complete_bipartite(2, 3))
        assert p.biregular is not None
        assert (p.biregular.c, p.biregular.d) == (2, 3)
        assert (p.biregular.r, p.biregular.s) == (3, 2)

    def test_cycle_and_path_flags(self):
        assert profile(gen_cycle(5)).is_cycle
        assert profile(gen_path(5)).is_path
        assert not profile(gen_complete(4)).is_cycle

    def test_bireg23_is_biregular(self, bireg23):
        p = profile(bireg23)
        b = p.biregular
        assert b is not None
        assert (b.c, b.d, b.r, b.s) == (2, 3, 6, 4)

    def test_petersen_profile(self, petersen):
        p = profile(petersen)
        assert p.regular_degree == 3
        assert not p.bipartite


class TestOneSum:
    def test_counts_and_degrees(self):
        g1 = gen_cycle(4)
        g2 = gen_cycle(5)
        g = one_sum(g1, 0, g2, 2)
        assert g.n == 4 + 5 - 1
        assert g.m == 4 + 5
        assert sorted(g.degrees).count(4) == 1

    def test_barbell_is_iterated_one_sum(self):
        want = gen_cycle_barbell(3, 4, 5)
        built = one_sum(gen_cycle(4), 0, gen_path(3), 0)
        built = one_sum(built, built.n - 1, gen_cycle(5), 0)
        assert built.n == want.n and built.m == want.m
        assert sorted(built.degrees) == sorted(want.degrees)
