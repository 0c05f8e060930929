"""Oracles that share no code with the engine.

Each graph is drawn as a plain edge list.  The oracle builds its own
transition matrices from that list and asks sympy for the characteristic
polynomial p = (x - 1) q, so K = q'(1) / q(1) = sum over the non-unit
eigenvalues of 1 / (1 - rho); it takes effective resistances from sympy's
Moore-Penrose pseudoinverse of the Laplacian, a matrix no route inverts;
networkx gives the vertex walk's constant from its own spectrum.  The
engine gets the same list through ``from_edge_list`` and its own chain
builders.
"""

import random
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
import sympy

from nbkemeny import (
    build_matrix,
    from_edge_list,
    kemeny_mfpt,
    kemeny_resistance,
    kemeny_triple,
    moment,
    resistance,
)
from nbkemeny.engine import kemeny_charpoly

WALKS = ("vertex", "edge", "non-backtracking")


def oracle_graphs(count=20, seed=20261020, max_arcs=30):
    """Connected graphs with minimum degree >= 2, more edges than vertices
    (so no cycle, whose non-backtracking walk is reducible) and 2m <= 30."""
    rng = random.Random(seed)
    graphs = {}
    while len(graphs) < count:
        n = rng.randint(5, 12)
        pairs = list(combinations(range(n), 2))
        edges = frozenset(rng.sample(pairs, rng.randint(n + 1, min(len(pairs), max_arcs // 2))))
        g = nx.Graph(edges)
        if len(g) == n and nx.is_connected(g) and min(d for _, d in g.degree) >= 2:
            graphs[edges] = g
    return list(graphs.values())


def transition(g, walk):
    """The walk's transition matrix over sympy Rationals, built from g alone."""
    if walk == "vertex":
        states = sorted(g)
        step = {v: [(w, g.degree(v)) for w in g[v]] for v in states}
    else:
        states = sorted([(u, v) for u, v in g.edges] + [(v, u) for u, v in g.edges])
        backtrack = walk == "edge"
        step = {(u, v): [((v, w), g.degree(v) - (not backtrack))
                         for w in g[v] if backtrack or w != u]
                for u, v in states}
    index = {s: i for i, s in enumerate(states)}
    P = sympy.zeros(len(states))
    for s, moves in step.items():
        for t, d in moves:
            P[index[s], index[t]] = sympy.Rational(1, d)
    return P


def sympy_kemeny(P):
    """K = q'(1) / q(1), with p = (x - 1) q the characteristic polynomial."""
    x = sympy.Symbol("x")
    q, r = sympy.div(P.charpoly(x), sympy.Poly(x - 1, x))
    assert r.is_zero
    K = sympy.Rational(q.diff(x).eval(1), q.eval(1))
    return fraction(K)


def fraction(x):
    return Fraction(int(x.p), int(x.q))


def sympy_pinv(g):
    """The Moore-Penrose pseudoinverse of g's Laplacian, over sympy
    Rationals."""
    L = sympy.diag(*[g.degree(v) for v in range(len(g))])
    for u, v in g.edges:
        L[u, v] = L[v, u] = -1
    return L.pinv()


@pytest.fixture(scope="module")
def graphs():
    return oracle_graphs()


@pytest.fixture(scope="module")
def sympy_values(graphs):
    """sympy's K of every walk of every graph, shared by the route tests."""
    return [{walk: sympy_kemeny(transition(g, walk)) for walk in WALKS} for g in graphs]


def engine_graph(g):
    return from_edge_list(len(g), sorted(tuple(sorted(e)) for e in g.edges))


def test_exact_charpoly_matches_sympy(graphs, sympy_values):
    for g, want in zip(graphs, sympy_values):
        eg = engine_graph(g)
        for walk in WALKS:
            got = kemeny_charpoly(build_matrix(eg, walk, exact=True))
            assert got == want[walk], (sorted(g.edges), walk)


def test_exact_mfpt_matches_sympy(graphs, sympy_values):
    for g, want in zip(graphs, sympy_values):
        eg = engine_graph(g)
        for walk in WALKS:
            got, residual = kemeny_mfpt(build_matrix(eg, walk, exact=True))
            assert (got, residual) == (want[walk], 0), (sorted(g.edges), walk)


def test_exact_resistance_matches_sympy_pinv(graphs):
    # the pseudoinverse, the resistances r(i, j) = l_ii + l_jj - 2 l_ij,
    # K_v = d^T R d / (4m) and the moments sum_i d_i r(i, v) of the one-sum
    # rule
    for g in graphs:
        eg = engine_graph(g)
        n = len(g)
        Lp = sympy_pinv(g)
        R = sympy.Matrix(n, n, lambda i, j: Lp[i, i] + Lp[j, j] - 2 * Lp[i, j])
        data = resistance(eg, exact=True)
        assert data.lpinv.tolist() == [[fraction(x) for x in Lp.row(i)] for i in range(n)]
        assert data.resistance.tolist() == [[fraction(x) for x in R.row(i)] for i in range(n)]
        d = sympy.Matrix([g.degree(v) for v in range(n)])
        want = fraction((d.T * R * d)[0] / (4 * len(g.edges)))
        assert kemeny_resistance(eg, exact=True) == want, sorted(g.edges)
        moments = R * d
        for v in range(n):
            assert moment(eg, v, exact=True) == fraction(moments[v]), (sorted(g.edges), v)


def test_float_vertex_matches_networkx(graphs):
    for g in graphs:
        report = kemeny_triple(engine_graph(g), mode="float")
        want = nx.kemeny_constant(g)
        assert not report.failed
        assert report.k_vertex == pytest.approx(want, rel=1e-9, abs=0)
