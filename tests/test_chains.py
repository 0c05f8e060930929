"""Walk-matrix constructions and their defining algebraic identities."""

from fractions import Fraction

import numpy as np
import pytest

from nbkemeny import (
    ChainError,
    ChainMatrix,
    OrientedEdgeIndex,
    adjacency_matrix,
    build_matrix,
    degree_matrix,
    edge_adjacency,
    edge_degree_matrix,
    edge_transition,
    from_edge_list,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_cycle_barbell,
    gen_path,
    incidence_operators,
    nb_adjacency,
    census_nb_vs_edge,
    enumerate_graphs,
    kemeny_triple,
    nb_transition,
    nb_walk_defect,
    to_graph6,
    vertex_transition,
)
from nbkemeny import census
from nbkemeny.chains import walk_stack


@pytest.fixture(params=["K4", "K23", "barbell", "petersen"])
def graph(request, petersen):
    return {
        "K4": gen_complete(4),
        "K23": gen_complete_bipartite(2, 3),
        "barbell": gen_cycle_barbell(2, 3, 4),
        "petersen": petersen,
    }[request.param]


class TestOrientedEdgeIndex:
    def test_reversal_is_involution_without_fixed_points(self, graph):
        idx = OrientedEdgeIndex.from_graph(graph)
        assert len(idx) == 2 * graph.m
        for a, r in enumerate(idx.rev):
            assert idx.rev[r] == a
            assert r != a
            u, v = idx.arcs[a]
            assert idx.arcs[r] == (v, u)

    def test_successor_table(self, graph):
        idx = OrientedEdgeIndex.from_graph(graph)
        for a, (_, v) in enumerate(idx.arcs):
            want = [b for b, (x, _) in enumerate(idx.arcs) if x == v]
            assert list(idx.succ[a]) == want
            assert len(idx.succ[a]) == graph.degrees[v]

    def test_position_lookup(self):
        g = gen_cycle(4)
        idx = OrientedEdgeIndex.from_graph(g)
        for a, arc in enumerate(idx.arcs):
            assert idx.position(*arc) == a
        with pytest.raises(KeyError):
            idx.position(0, 2)


class TestConstructions:
    def test_vertex_transition_rows(self):
        P = vertex_transition(gen_complete_bipartite(2, 3), exact=True)
        assert P.data[0, 2] == Fraction(1, 3)
        sums = P.data.sum(axis=1)
        assert all(s == 1 for s in sums)

    def test_adjacency_factors_through_incidence(self, graph):
        # A = T S and C = S T
        T, S, tau = incidence_operators(graph, exact=True)
        A = adjacency_matrix(graph, exact=True)
        C = edge_adjacency(graph, exact=True)
        assert np.array_equal(T.data @ S.data, A.data)
        assert np.array_equal(S.data @ T.data, C.data)
        # tau is a symmetric permutation matrix squaring to identity
        assert np.array_equal(tau.data, tau.data.T)
        assert np.array_equal(tau.data @ tau.data, np.eye(len(tau.data), dtype=object) + 0)

    def test_nb_adjacency_removes_reversals(self, graph):
        C = edge_adjacency(graph, exact=True)
        B = nb_adjacency(graph, exact=True)
        _, _, tau = incidence_operators(graph, exact=True)
        assert np.array_equal(C.data - tau.data, B.data)

    def test_edge_degree_diagonal(self):
        g = gen_complete_bipartite(2, 3)
        idx = OrientedEdgeIndex.from_graph(g)
        D = edge_degree_matrix(g, exact=True)
        for a, (_, v) in enumerate(idx.arcs):
            assert D.data[a, a] == g.degrees[v]

    def test_transitions_recover_unnormalized_counts(self, graph):
        # P_e = D_e^{-1} C and P_nb = (D_e - I)^{-1} B row-by-row
        idx = OrientedEdgeIndex.from_graph(graph)
        C = edge_adjacency(graph, exact=True)
        B = nb_adjacency(graph, exact=True)
        Pe = edge_transition(graph, exact=True)
        Pnb = nb_transition(graph, exact=True)
        for a, (_, v) in enumerate(idx.arcs):
            d = graph.degrees[v]
            assert all(Pe.data[a] * d == C.data[a])
            assert all(Pnb.data[a] * (d - 1) == B.data[a])

    def test_exact_and_float_agree(self, graph):
        for kind in ("vertex", "edge", "non-backtracking"):
            Mf = build_matrix(graph, kind, exact=False)
            Me = build_matrix(graph, kind, exact=True)
            assert np.allclose(Mf.data, Me.as_float(), atol=1e-15)

    @pytest.mark.parametrize("kind", ["vertex", "edge", "non-backtracking"])
    def test_walk_stack_matches_one_graph_builders(self, kind):
        # K_{2,3}, a relabeled copy and the bowtie: three graphs on n = 5, m = 6
        k23 = gen_complete_bipartite(2, 3)
        graphs = [k23, from_edge_list(5, [((u + 2) % 5, (v + 2) % 5) for u, v in k23.edges]),
                  from_edge_list(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])]
        stack = walk_stack(graphs, kind)
        assert stack.shape == (3,) + build_matrix(k23, kind).shape
        for g, P in zip(graphs, stack):
            assert np.array_equal(P, build_matrix(g, kind).data)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_walk_stack_rows_are_checked(self):
        # the second graph's arc 3 -> 4 (arc 10) enters a leaf, so its
        # non-backtracking row has no step and reads 0/0
        bowtie = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        leaf = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4)])
        with pytest.raises(ChainError, match="row 10 of non-backtracking matrix"):
            walk_stack([bowtie, leaf], "non-backtracking")


class TestIntegerRows:
    """An exact chain holds its rows as integers F over row denominators e,
    P = diag(e)^{-1} F; a float chain has e = 1 and F = data."""

    @pytest.mark.parametrize("kind", ["vertex", "edge", "non-backtracking"])
    def test_rows_are_integers_over_the_walk_degree(self, graph, kind):
        P = build_matrix(graph, kind, exact=True)
        e, F = P.rows
        assert all(type(x) is int for x in F.flat)
        assert all(Fraction(F[i, j], e[i]) == P.data[i, j]
                   for i in range(P.order) for j in range(P.order))
        if kind == "vertex":
            want = list(graph.degrees)
        else:
            shift = 1 if kind == "non-backtracking" else 0
            want = [graph.degrees[v] - shift for _, v in OrientedEdgeIndex.from_graph(graph).arcs]
        assert list(e) == want

    def test_hand_built_chain_gets_the_same_rows(self, graph):
        P = edge_transition(graph, exact=True)
        rows = [[Fraction(x) for x in r] for r in P.data.tolist()]
        e, F = ChainMatrix("edge", np.array(rows, dtype=object)).rows
        assert list(e) == list(P.rows[0])
        assert np.array_equal(F, P.rows[1])

    def test_float_rows_are_the_data(self, graph):
        P = edge_transition(graph)
        e, F = P.rows
        assert e == 1 and F is P.data

    def test_exact_row_off_by_1e_30_raises(self):
        row = [Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**30)]
        with pytest.raises(ChainError, match="row 1 of vertex matrix"):
            ChainMatrix("vertex", np.array([[Fraction(1), 0], row], dtype=object))

    def test_float_row_tolerance(self):
        # the float bound stays 1e-12
        ChainMatrix("vertex", np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]]))
        with pytest.raises(ChainError, match="row 1 of vertex matrix"):
            ChainMatrix("vertex", np.array([[0.0, 1.0], [1.0 + 1e-11, 0.0]]))


class TestValidation:
    def test_nb_needs_min_degree_two(self):
        with pytest.raises(ChainError):
            nb_transition(gen_path(4))

    def test_nb_rejects_cycles(self):
        with pytest.raises(ChainError):
            nb_transition(gen_cycle(5))

    @pytest.mark.parametrize("source", [4, 5, 6, "named"])
    def test_consumers_agree(self, source):
        # the builder, kemeny_triple and the census all take the walk's
        # preconditions, and their wording, from nb_walk_defect
        if source == "named":
            graphs = [gen_path(4), gen_cycle(5), from_edge_list(
                6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])]
        else:
            graphs = list(enumerate_graphs(source))
        for g in graphs:
            defect = nb_walk_defect(g)
            try:
                nb_transition(g)
            except ChainError as exc:
                assert str(exc) == defect
            else:
                assert defect is None
            if g.is_connected():
                assert kemeny_triple(g, mode="float").nb_omitted == defect
            reason = census._qualify(g)
            assert reason == (defect if g.is_connected() else "not connected")
            result = census_nb_vs_edge([g])
            if reason is None:
                assert len(result.records) == 1 and result.skipped == ()
            else:
                assert result.records == ()
                assert result.skipped == ((to_graph6(g), reason),)

    def test_isolated_vertex_rejected(self):
        g = from_edge_list(3, [(0, 1)])
        with pytest.raises(ChainError):
            vertex_transition(g)
        with pytest.raises(ChainError):
            edge_transition(g)

    def test_unknown_kind(self):
        with pytest.raises(ChainError):
            build_matrix(gen_complete(4), "laplacian")

    def test_build_matrix_covers_all_kinds(self):
        g = gen_complete(4)
        for kind in ("adjacency", "degree", "vertex", "edge",
                     "non-backtracking", "edge-adjacency", "nb-adjacency",
                     "edge-degree", "incidence-T", "incidence-S", "reversal"):
            M = build_matrix(g, kind, exact=True)
            assert M.kind == kind
