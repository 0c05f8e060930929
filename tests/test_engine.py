"""Engine routes against frozen values and an independent oracle.

The FROZEN constants below were produced by a fundamental-matrix oracle
(Z = (I - P + 1 pi)^{-1}, K = tr(Z) - 1, chains built from adjacency
dictionaries) and checked against each other before being written down.
Engine routes must reproduce them exactly in rational mode.  The random
graphs are checked against conftest.oracle_kemeny, which takes one masked
passage-time solve per target, a construction the engine does not share.
"""

import errno
import os
import random
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nbkemeny import (
    BarbellParams,
    ChainMatrix,
    EngineError,
    Spectrum,
    barbell_kemeny,
    build_matrix,
    from_edge_list,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_cycle_barbell,
    gen_necklace,
    gen_path,
    kemeny_charpoly,
    kemeny_from_charpoly,
    kemeny_mfpt,
    kemeny_one_sum,
    kemeny_resistance,
    kemeny_spectrum,
    kemeny_triple,
    mfpt,
    moment,
    one_sum,
    resistance,
    stationary,
)
from nbkemeny import engine, ratmath
from nbkemeny.engine import agree
from nbkemeny.ratmath import charpoly_pencil, exact_inverse

import ratmath_reference as reference
from conftest import (
    PETERSEN_EDGES,
    oracle_edge_P,
    oracle_kemeny,
    oracle_nb_P,
    oracle_vertex_P,
    random_connected,
    random_cubic,
    random_min2,
)

F = Fraction

# graph name -> (K_vertex, K_edge, K_nb); populated by fixtures below
FROZEN = {
    "K4": (F(9, 4), F(41, 4), F(133, 12)),
    "K5": (F(16, 5), F(91, 5), F(367, 20)),
    "K33": (F(9, 2), F(33, 2), F(33, 2)),
    "K23": (F(7, 2), F(21, 2), F(73, 6)),
    "petersen": (F(99, 10), F(299, 10), F(829, 30)),
    "cube": (F(29, 4), F(93, 4), F(265, 12)),
    "necklace2": (F(103, 5), F(203, 5), F(156, 5)),
    "CB(2,3,3)": (F(323, 42), F(659, 42), F(241, 14)),
    "CB(3,4,6)": (F(49, 2), F(75, 2), F(88, 3)),
    "bireg23": (F(27, 2), F(55, 2), F(23)),
}


@pytest.fixture(scope="module")
def named_graphs(request):
    petersen = request.getfixturevalue("petersen")
    cube3 = request.getfixturevalue("cube3")
    bireg23 = request.getfixturevalue("bireg23")
    return {
        "K4": gen_complete(4),
        "K5": gen_complete(5),
        "K33": gen_complete_bipartite(3, 3),
        "K23": gen_complete_bipartite(2, 3),
        "petersen": petersen,
        "cube": cube3,
        "necklace2": gen_necklace(2),
        "CB(2,3,3)": gen_cycle_barbell(2, 3, 3),
        "CB(3,4,6)": gen_cycle_barbell(3, 4, 6),
        "bireg23": bireg23,
    }


# conftest session fixtures are function-scoped via request in module scope
@pytest.fixture(scope="module")
def petersen(request):
    from conftest import PETERSEN_EDGES
    return from_edge_list(10, PETERSEN_EDGES)


@pytest.fixture(scope="module")
def cube3():
    from conftest import CUBE_EDGES
    return from_edge_list(8, CUBE_EDGES)


@pytest.fixture(scope="module")
def bireg23():
    from conftest import BIREG23_EDGES
    return from_edge_list(10, BIREG23_EDGES)


SMALL = ["K4", "K5", "K33", "K23", "CB(2,3,3)", "CB(3,4,6)"]


class TestStationary:
    def test_vertex_walk_is_degree_proportional(self, named_graphs):
        g = named_graphs["CB(2,3,3)"]
        pi = stationary(build_matrix(g, "vertex", exact=True))
        want = [Fraction(d, 2 * g.m) for d in g.degrees]
        assert list(pi) == want

    def test_edge_and_nb_walks_are_uniform(self, named_graphs):
        g = named_graphs["K23"]
        for kind in ("edge", "non-backtracking"):
            pi = stationary(build_matrix(g, kind, exact=True))
            assert set(pi) == {Fraction(1, 2 * g.m)}

    def test_reducible_chain_raises(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(EngineError):
            stationary(build_matrix(g, "vertex", exact=True))
        with pytest.raises(EngineError):
            stationary(build_matrix(g, "vertex", exact=False))

    @pytest.mark.parametrize("exact,delta", [(True, F(1, 10**40)), (False, 1e-8)],
                             ids=["exact", "float"])
    def test_near_miss_fails_verification(self, exact, delta, named_graphs, monkeypatch):
        g = named_graphs["CB(3,4,6)"]
        P = build_matrix(g, "vertex", exact=exact)
        want = [F(d, 2 * g.m) for d in g.degrees]
        assert stationary(P).tolist() == pytest.approx(want, abs=1e-15)

        # the solve returns (s, Y) with Y / s = pi / e (see stationary):
        # nudge it so that pi has delta moved from state 0 to state 1
        e = np.broadcast_to(P.rows[0], P.order)
        true_solve = engine._solve_scaled

        def nudged(A, B, singular):
            s, Y = true_solve(A, B, singular)
            Y = Y.copy()
            Y[0] -= s * delta / e[0]
            Y[1] += s * delta / e[1]
            return s, Y

        monkeypatch.setattr(engine, "_solve_scaled", nudged)
        with pytest.raises(EngineError, match="stationary verification failed"):
            stationary(P)


class TestMfpt:
    def test_return_time_identity(self, named_graphs):
        # expected return time 1 + sum_j P_ij m_ji = 1/pi_i, exactly
        g = named_graphs["K23"]
        P = build_matrix(g, "vertex", exact=True)
        M = mfpt(P)
        pi = stationary(P)
        for i in range(g.n):
            ret = 1 + sum(P.data[i, j] * M[j, i] for j in range(g.n))
            assert ret == 1 / pi[i]

    def test_diagonal_zero_offdiagonal_positive(self, named_graphs):
        M = mfpt(build_matrix(named_graphs["K4"], "edge", exact=True))
        N = M.shape[0]
        for i in range(N):
            for j in range(N):
                assert (M[i, j] == 0) == (i == j)
                assert M[i, j] >= 0

    def test_spread_is_exactly_zero(self, named_graphs):
        P = build_matrix(named_graphs["K33"], "non-backtracking", exact=True)
        _, spread = kemeny_mfpt(P)
        assert spread == 0.0

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_first_step_check_catches_wrong_stationary(self, exact, monkeypatch):
        # K = tr(Z) - 1 whatever pi is, so the routes still agree; only the
        # first-step residual sees the moved mass, and it reads that mass
        true_stationary = engine.stationary

        def shifted(P):
            pi = true_stationary(P).copy()
            moved = pi[0] / 4
            pi[0] -= moved
            pi[1] += moved
            return pi

        monkeypatch.setattr(engine, "stationary", shifted)
        rep = kemeny_triple(gen_cycle_barbell(3, 4, 6), mode="exact" if exact else "float")
        assert rep.failed
        # vertex 0 has degree 3 of 2m = 24, so a quarter of pi_0 is 1/32
        assert rep.kappa_spread["vertex"] == pytest.approx(1 / 32, rel=1e-9)
        assert all(r < 1e-12 for r in rep.residuals.values())
        assert rep.identity_residual < 1e-12


class TestGeneralizedInverse:
    """The mfpt route inverts G = (I - P + 1 e_N^T)^{-1}, not Kemeny and
    Snell's Z = (I - P + 1 pi^T)^{-1}; G = Z + 1 w^T gives the same passage
    times with far smaller integers."""

    @pytest.mark.parametrize("kind", ["vertex", "edge", "non-backtracking"])
    @pytest.mark.parametrize("name", list(FROZEN))
    def test_exact_passage_times_match_kemeny_snell(self, name, kind, named_graphs):
        P = build_matrix(named_graphs[name], kind, exact=True)
        pi = stationary(P)
        A = np.eye(P.order, dtype=object) - P.data + pi
        Z = np.array(exact_inverse(A.tolist()), dtype=object)
        M = mfpt(P)
        assert M.tolist() == ((np.diag(Z) - Z) / pi).tolist()
        assert kemeny_mfpt(P)[1] == 0

    @pytest.mark.parametrize("kind", ["edge", "non-backtracking"])
    def test_exact_scale_stays_small(self, kind):
        # the Kemeny-Snell form gives 362 and 372 bits here: pi = 1/62
        # scales every cleared row by 62
        P = build_matrix(gen_cycle_barbell(2, 15, 15), kind, exact=True)
        _, s, _ = engine._fundamental(P)
        assert abs(s).bit_length() <= 64

    @pytest.mark.parametrize("k,a,b", [(100, 4, 4), (2, 150, 150)])
    def test_float_mfpt_matches_barbell_closed_form(self, k, a, b):
        # the Kemeny-Snell form was 7.8e-10 and 3.3e-9 off on the edge walk,
        # with identity gaps of 6.3e-10 and 5.9e-9
        g = gen_cycle_barbell(k, a, b)
        kv, ke, _ = barbell_kemeny(BarbellParams(k, a, b))
        rep = kemeny_triple(g, mode="float")
        assert rep.routes["vertex"]["mfpt"] == pytest.approx(float(kv), abs=5e-10)
        assert rep.routes["edge"]["mfpt"] == pytest.approx(float(ke), abs=5e-10)
        assert rep.identity_residual <= 5e-10
        # the spectrum route's gap of about 1e-8 exceeds tol, but not the
        # bound tol * (K/256)^2 that ``agree`` scales it to
        assert not rep.failed
        assert abs(rep.routes["edge"]["spectrum"] - float(ke)) > rep.tolerance

    @pytest.mark.parametrize("k,a,b", [(100, 4, 4), (2, 150, 150)])
    def test_relative_error_of_1e9_still_fails_long_barbells(self, k, a, b, monkeypatch):
        # K_e is 3903 and 11714: bounds of 2.3e-7 and 2.1e-6 against
        # perturbations of 3.9e-6 and 1.2e-5
        charpoly = engine.kemeny_charpoly
        monkeypatch.setattr(engine, "kemeny_charpoly", lambda P: charpoly(P) * (1 + 1e-9))
        assert kemeny_triple(gen_cycle_barbell(k, a, b), mode="float").failed

    def test_bound_is_tol_below_k_256(self, monkeypatch):
        # every K of CB(3,4,6) is below 256, so the bound is tol itself
        g = gen_cycle_barbell(3, 4, 6)
        charpoly = engine.kemeny_charpoly
        for shift, failed in ((2e-9, True), (5e-10, False)):
            monkeypatch.setattr(engine, "kemeny_charpoly", lambda P: charpoly(P) + shift)
            assert kemeny_triple(g, mode="float").failed is failed, shift


class TestFrozenValues:
    @pytest.mark.parametrize("name", list(FROZEN))
    def test_exact_mfpt_route(self, name, named_graphs):
        g = named_graphs[name]
        kv, ke, knb = FROZEN[name]
        assert kemeny_mfpt(build_matrix(g, "vertex", exact=True))[0] == kv
        assert kemeny_mfpt(build_matrix(g, "edge", exact=True))[0] == ke
        assert kemeny_mfpt(build_matrix(g, "non-backtracking", exact=True))[0] == knb

    @pytest.mark.parametrize("name", SMALL)
    def test_exact_charpoly_route(self, name, named_graphs):
        g = named_graphs[name]
        kv, ke, knb = FROZEN[name]
        assert kemeny_charpoly(build_matrix(g, "vertex", exact=True)) == kv
        assert kemeny_charpoly(build_matrix(g, "edge", exact=True)) == ke
        assert kemeny_charpoly(build_matrix(g, "non-backtracking", exact=True)) == knb

    @pytest.mark.parametrize("name", list(FROZEN))
    def test_exact_resistance_route(self, name, named_graphs):
        assert kemeny_resistance(named_graphs[name], exact=True) == FROZEN[name][0]

    @pytest.mark.parametrize("name", list(FROZEN))
    def test_float_routes(self, name, named_graphs):
        g = named_graphs[name]
        for kind, want in zip(("vertex", "edge", "non-backtracking"), FROZEN[name]):
            P = build_matrix(g, kind, exact=False)
            assert kemeny_spectrum(P) == pytest.approx(float(want), abs=1e-9)
            assert kemeny_charpoly(P) == pytest.approx(float(want), abs=1e-9)
            assert kemeny_mfpt(P)[0] == pytest.approx(float(want), abs=1e-9)
        assert kemeny_resistance(g, exact=False) == pytest.approx(
            float(FROZEN[name][0]), abs=1e-9)


class TestRandomAgainstOracle:
    def test_routes_match_per_target_oracle(self):
        rng = random.Random(20260816)
        for _ in range(10):
            g = random_min2(rng.randrange(5, 10), rng)
            for kind, builder in (("vertex", oracle_vertex_P),
                                  ("edge", oracle_edge_P),
                                  ("non-backtracking", oracle_nb_P)):
                want = oracle_kemeny(builder(g))
                P = build_matrix(g, kind, exact=False)
                assert kemeny_spectrum(P) == pytest.approx(want, abs=1e-8)
                assert kemeny_charpoly(P) == pytest.approx(want, abs=1e-8)
                assert kemeny_mfpt(P)[0] == pytest.approx(want, abs=1e-8)
            assert kemeny_resistance(g, exact=False) == pytest.approx(
                oracle_kemeny(oracle_vertex_P(g)), abs=1e-8)


class TestSpectrum:
    def test_sorted_and_bounded(self, named_graphs):
        spec = Spectrum.of_chain(
            build_matrix(named_graphs["petersen"], "non-backtracking"))
        vals = spec.values
        assert abs(vals[0] - 1.0) < 1e-9
        reals = [v.real for v in vals]
        assert reals == sorted(reals, reverse=True)

    def test_radius_validation(self):
        with pytest.raises(EngineError):
            Spectrum((1.0, 1.5))

    def test_non_simple_unit_eigenvalue(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(EngineError):
            kemeny_spectrum(build_matrix(g, "vertex", exact=False))

    def test_vertex_shortcut_needs_a_symmetric_form(self):
        # doubly stochastic, every row maximum 1/2, yet D^{1/2} C D^{-1/2} = C
        # is not symmetric: the symmetric solver would give 34/15
        C = [[0, .5, .25, .25], [.25, 0, .5, .25], [.25, .25, 0, .5], [.5, .25, .25, 0]]
        P = ChainMatrix("vertex", np.array(C))
        assert kemeny_spectrum(P) == pytest.approx(86 / 39, abs=1e-12)
        assert kemeny_mfpt(P)[0] == pytest.approx(86 / 39, abs=1e-12)
        exact = ChainMatrix("vertex", np.array([[F(x) for x in r] for r in C], dtype=object))
        assert kemeny_charpoly(exact) == F(86, 39)

    def test_every_simple_walk_takes_the_symmetric_shortcut(self, named_graphs, monkeypatch):
        def no_general_solver(*args):
            raise AssertionError("general eigensolver used")

        rng = random.Random(31)
        graphs = [*named_graphs.values(), gen_path(5), gen_cycle_barbell(4, 3, 7)]
        graphs += [random_min2(rng.randrange(5, 12), rng) for _ in range(10)]
        monkeypatch.setattr(np.linalg, "eigvals", no_general_solver)
        for g in graphs:
            assert len(Spectrum.of_chain(build_matrix(g, "vertex")).values) == g.n


class TestCharpoly:
    def test_from_coeffs_exact(self):
        # p(x) = (x - 1)(x + 1/2)^2 scaled by 4 = 4x^3 - 3x - 1: the K3 walk
        assert kemeny_from_charpoly([-1, -3, 0, 4]) == Fraction(4, 3)

    def test_rejects_nonroot(self):
        with pytest.raises(ValueError):
            kemeny_from_charpoly([1, 1])

    @pytest.mark.parametrize("name", list(FROZEN))
    def test_exact_matches_pencil_reference(self, name, named_graphs):
        for kind in ("vertex", "edge", "non-backtracking"):
            P = build_matrix(named_graphs[name], kind, exact=True)
            assert kemeny_charpoly(P) == kemeny_from_charpoly(charpoly_pencil(P.data.tolist()))

    def test_one_state_chain(self):
        assert kemeny_charpoly(ChainMatrix("vertex", np.array([[F(1)]], dtype=object))) == F(0)
        zero = kemeny_charpoly(ChainMatrix("vertex", np.ones((1, 1))))
        assert type(zero) is float and zero == 0.0

    @pytest.mark.parametrize("exact", [True, False])
    def test_reducible_chain_rejected(self, exact):
        # two 2-cycles: the unit root is double
        two_cycles = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        P = ChainMatrix("vertex", np.array(two_cycles, dtype=object if exact else float))
        with pytest.raises(EngineError, match="not simple"):
            kemeny_charpoly(P)

    @pytest.mark.parametrize("exact", [True, False])
    def test_non_transition_kind_rejected(self, exact):
        # the deflation needs unit row sums; K4's adjacency has row sums 3
        A = build_matrix(gen_complete(4), "adjacency", exact=exact)
        with pytest.raises(EngineError, match="transition"):
            kemeny_charpoly(A)

    def test_float_matches_exact_pencil(self, named_graphs):
        g = named_graphs["CB(3,4,6)"]
        P = build_matrix(g, "non-backtracking", exact=True)
        exact = kemeny_from_charpoly(charpoly_pencil(P.data.tolist()))
        floaty = kemeny_charpoly(build_matrix(g, "non-backtracking", exact=False))
        assert floaty == pytest.approx(float(exact), abs=1e-9)

    @pytest.mark.parametrize("k,a,b", [(100, 4, 4), (2, 150, 150)])
    def test_float_matches_barbell_closed_form(self, k, a, b):
        # long paths make the walks ill-conditioned: K_e is 3903 and 11714
        g = gen_cycle_barbell(k, a, b)
        kv, ke, _ = barbell_kemeny(BarbellParams(k, a, b))
        for kind, want in (("vertex", kv), ("edge", ke)):
            got = kemeny_charpoly(build_matrix(g, kind, exact=False))
            assert got == pytest.approx(float(want), abs=1e-9), kind

    def test_deflation_independent_of_state_zero(self):
        # the block P[1:, 1:] - P[0, 1:] singles out state 0: moving a
        # maximum- or a minimum-degree vertex there must not change K
        rng = random.Random(20261018)

        def moved_to_zero(g, v):
            perm = list(range(g.n))
            rng.shuffle(perm)
            w = perm.index(0)
            perm[v], perm[w] = 0, perm[v]
            return from_edge_list(g.n, [(perm[x], perm[y]) for x, y in g.edges])

        for _ in range(10):
            g = random_min2(rng.randrange(5, 10), rng)
            hub = g.degrees.index(max(g.degrees))
            leaf = g.degrees.index(min(g.degrees))
            variants = [g, moved_to_zero(g, hub), moved_to_zero(g, leaf)]
            assert variants[1].degrees[0] == max(g.degrees)
            assert variants[2].degrees[0] == min(g.degrees)
            for kind in ("vertex", "edge", "non-backtracking"):
                exact = {kemeny_charpoly(build_matrix(h, kind, exact=True)) for h in variants}
                assert len(exact) == 1, (g.edges, kind)
                floats = [kemeny_charpoly(build_matrix(h, kind, exact=False)) for h in variants]
                assert max(floats) - min(floats) <= 1e-9, (g.edges, kind)
                assert floats[0] == pytest.approx(float(exact.pop()), abs=1e-9)

    def test_large_float_chain_accuracy(self):
        # 66-state chain: the deflated-trace route must stay at spectral
        # accuracy
        g = gen_necklace(5)
        Pe = build_matrix(g, "edge", exact=False)
        assert kemeny_charpoly(Pe) == pytest.approx(kemeny_spectrum(Pe), abs=1e-9)


class TestResistance:
    def test_complete_graph_values(self):
        # r = 2/n between any two vertices of K_n
        R = resistance(gen_complete(4)).resistance
        for i in range(4):
            for j in range(4):
                assert R[i, j] == (0 if i == j else Fraction(1, 2))

    def test_cycle_values(self):
        # series/parallel on C4: adjacent 3/4, opposite 1
        R = resistance(gen_cycle(4)).resistance
        assert R[0, 1] == Fraction(3, 4)
        assert R[0, 2] == Fraction(1)

    def test_disconnected_raises(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        with pytest.raises(EngineError):
            resistance(g)

    @pytest.mark.parametrize("g, trees", [
        (gen_complete(5), 5 ** 3),
        (gen_complete(6), 6 ** 4),
        (gen_cycle(7), 7),
        (gen_complete_bipartite(3, 4), 3 ** 3 * 4 ** 2),
        (gen_complete_bipartite(2, 5), 2 ** 4 * 5),
        (gen_cycle_barbell(3, 4, 6), 4 * 6),
        (gen_cycle_barbell(1, 3, 5), 3 * 5),
        (from_edge_list(10, PETERSEN_EDGES), 2000),
    ], ids=["K5", "K6", "C7", "K34", "K25", "CB(3,4,6)", "CB(1,3,5)", "petersen"])
    def test_grounded_solve_counts_spanning_trees(self, g, trees):
        # Kirchhoff's matrix-tree theorem: |det L_v| is the number of
        # spanning trees whichever vertex v is grounded; for a cycle
        # barbell, the product of its two cycles' counts
        for v in range(g.n):
            s, _, _ = engine._grounded_inverse(g, v, exact=True)
            assert abs(s) == trees, v

    def test_exact_route_matches_pseudoinverse_formula(self, named_graphs):
        rng = random.Random(20261019)
        graphs = list(named_graphs.values())
        for _ in range(20):
            n = rng.randint(2, 12)
            graphs.append(random_connected(n, rng, extra_edges=rng.randrange(n)))
        for g in graphs:
            assert kemeny_resistance(g, exact=True) == pseudoinverse_kemeny(g)

    @pytest.mark.parametrize("params", [(100, 4, 4), (2, 150, 150)])
    def test_float_route_on_long_barbells(self, params):
        want = float(barbell_kemeny(BarbellParams(*params))[0])
        got = kemeny_resistance(gen_cycle_barbell(*params), exact=False)
        assert abs(got - want) <= 1e-12 * want


def pseudoinverse_kemeny(g):
    """d^T R d / (4m), with R from the Laplacian pseudoinverse (L + J/n)^{-1}
    - J/n, inverted as a rational matrix by the reference kernel: not the
    engine's grounded Laplacian L_0 and no closed form in Y."""
    n = g.n
    A = [[F(1, n)] * n for _ in range(n)]
    for v, d in enumerate(g.degrees):
        A[v][v] += d
    for u, v in g.edges:
        A[u][v] -= 1
        A[v][u] -= 1
    s, Y = reference.exact_inverse_scaled(A)
    lp = [[F(y, s) - F(1, n) for y in row] for row in Y]
    deg = list(enumerate(g.degrees))
    return sum(di * dj * (lp[i][i] + lp[j][j] - 2 * lp[i][j])
               for i, di in deg for j, dj in deg) / (4 * g.m)


def approx(want, exact):
    """Equality in exact mode, agreement to 1e-12 in float mode."""
    return pytest.approx(want, rel=0, abs=0 if exact else 1e-12)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
class TestOneSum:
    def test_matches_direct_computation(self, exact):
        g1, v1 = gen_cycle(4), 0
        g2, v2 = gen_complete(4), 2
        combined = one_sum(g1, v1, g2, v2)
        want = kemeny_resistance(combined, exact=exact)
        got = kemeny_one_sum(g1, v1, g2, v2, exact=exact)
        assert got == approx(want, exact)

    def test_moment_is_zero_at_isolated_center(self, exact):
        g = gen_path(2)
        # single edge: mu(v) = deg(0) r(0,v) + deg(1) r(1,v) = 1 at either end
        assert moment(g, 0, exact) == approx(1, exact)
        assert moment(g, 1, exact) == approx(1, exact)

    def test_single_vertex_graph(self, exact):
        single = from_edge_list(1, [])
        zero = F(0) if exact else 0.0
        for got in (kemeny_resistance(single, exact), moment(single, 0, exact)):
            assert got == zero and type(got) is type(zero)
        # a single-vertex part leaves the other part's constant
        g = gen_complete(4)
        assert kemeny_one_sum(single, 0, g, 1, exact) == approx(
            kemeny_resistance(g, exact), exact)

    def test_result_types(self, exact):
        # exact routes give Fractions, float routes builtin floats (not
        # numpy scalars), which the JSON and CSV renderers rely on
        want = F if exact else float
        g = gen_cycle_barbell(2, 3, 3)
        values = [
            kemeny_resistance(g, exact),
            moment(g, 2, exact),
            kemeny_one_sum(g, 0, gen_complete(4), 1, exact),
        ]
        for kind in ("vertex", "edge", "non-backtracking"):
            P = build_matrix(g, kind, exact=exact)
            values += [kemeny_mfpt(P)[0], kemeny_charpoly(P)]
        assert all(type(v) is want for v in values)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
class TestGroundVertex:
    def test_glue_vertex_out_of_range(self, exact):
        # np.delete would read -1 as the last vertex and ground there
        g, g1, g2 = gen_cycle_barbell(2, 3, 4), gen_cycle(4), gen_complete(4)
        calls = [
            lambda: moment(g, -1, exact),
            lambda: moment(g, g.n, exact),
            lambda: kemeny_one_sum(g1, g1.n, g2, 0, exact),
            lambda: kemeny_one_sum(g1, 0, g2, -1, exact),
        ]
        for call in calls:
            with pytest.raises(EngineError, match="out of range"):
                call()

    def test_one_sum_grounds_each_part_once(self, exact, monkeypatch):
        # one solve per part, grounded at its glue vertex, gives both its K
        # and its moment
        g1, v1 = gen_cycle_barbell(2, 40, 40), 5
        g2, v2 = gen_cycle_barbell(3, 30, 50), 7
        want = kemeny_resistance(one_sum(g1, v1, g2, v2), exact)
        grounded = []

        def counted(g, v, exact):
            grounded.append(v)
            return inner(g, v, exact)

        inner = engine._grounded_inverse
        monkeypatch.setattr(engine, "_grounded_inverse", counted)
        got = kemeny_one_sum(g1, v1, g2, v2, exact)
        assert grounded == [v1, v2]
        if exact:
            assert got == want == F(6287077, 2445)
        else:
            assert got == pytest.approx(want, rel=1e-12)


class TestTriple:
    def test_exact_report(self):
        g = gen_cycle_barbell(2, 3, 3)
        rep = kemeny_triple(g, mode="exact")
        assert rep.k_vertex == FROZEN["CB(2,3,3)"][0]
        assert rep.k_edge == FROZEN["CB(2,3,3)"][1]
        assert rep.k_nb == FROZEN["CB(2,3,3)"][2]
        assert rep.identity_exact and rep.identity_residual == 0.0
        assert not rep.failed
        assert set(rep.modes.values()) == {"exact"}
        # the spectrum leg stays float, so the residual is tiny, not zero
        assert rep.residuals["vertex"] < 1e-12

    def test_float_report(self):
        g = gen_necklace(3)
        rep = kemeny_triple(g, mode="float", tol=1e-9)
        assert not rep.failed
        assert rep.identity_residual < 1e-10
        for walk in ("vertex", "edge", "non-backtracking"):
            assert rep.residuals[walk] < 1e-9

    def test_float_report_at_benchmark_scale(self):
        # 2m = 600 states per arc walk
        g = random_cubic(200, random.Random(20261018))
        rep = kemeny_triple(g, mode="float", tol=1e-9)
        assert not rep.failed
        for walk in ("vertex", "edge", "non-backtracking"):
            vals = [rep.routes[walk][r] for r in ("mfpt", "spectrum", "charpoly")]
            assert max(vals) - min(vals) <= 1e-9
            assert rep.kappa_spread[walk] <= 1e-9

    def test_auto_mode_splits_on_cap(self):
        g = gen_necklace(5)  # n = 22 states for the vertex walk, 2m = 66
        rep = kemeny_triple(g, mode="auto")
        assert rep.modes["vertex"] == "exact"
        assert rep.modes["edge"] == "float"

    def test_nb_omitted_for_paths_and_cycles(self):
        rep = kemeny_triple(gen_path(4))
        assert rep.k_nb is None and "degree" in rep.nb_omitted
        rep = kemeny_triple(gen_cycle(5))
        assert rep.k_nb is None and "reducible" in rep.nb_omitted

    def test_identity_holds_for_every_named_graph(self, named_graphs):
        for g in named_graphs.values():
            kv = kemeny_mfpt(build_matrix(g, "vertex", exact=True))[0]
            ke = kemeny_mfpt(build_matrix(g, "edge", exact=True))[0]
            assert ke - kv == 2 * g.m - g.n

    def test_rejects_disconnected_and_bad_mode(self):
        with pytest.raises(EngineError):
            kemeny_triple(from_edge_list(4, [(0, 1), (2, 3)]))
        with pytest.raises(ValueError):
            kemeny_triple(gen_complete(4), mode="fast")
        for tol in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="tol"):
                kemeny_triple(gen_complete(4), tol=tol)

    def test_exact_routes_feed_ratmath_integers(self, monkeypatch):
        # every exact route builds its matrix integral, from the chain's
        # rows or the graph's Laplacian, so ratmath clears no Fraction
        rows_seen = {"solve_scaled": [], "trace_scaled": []}
        solve, trace = ratmath.solve_scaled, ratmath.trace_scaled

        def ints(*rows):
            return all(type(x) is int for row in rows for x in row)

        def checked_solve(A, B):
            rows_seen["solve_scaled"].append(ints(*A, *B))
            return solve(A, B)

        def checked_trace(A, c):
            rows_seen["trace_scaled"].append(ints(*A, c))
            return trace(A, c)

        monkeypatch.setattr(ratmath, "solve_scaled", checked_solve)
        monkeypatch.setattr(ratmath, "trace_scaled", checked_trace)
        rng = random.Random(20261019)
        graphs = [gen_cycle_barbell(3, 4, 6), gen_complete_bipartite(3, 4),
                  random_min2(7, rng), random_min2(9, rng)]
        for g in graphs:
            assert not kemeny_triple(g, mode="exact").failed
        # per graph: stationary, fundamental and resistance solves on the
        # vertex walk, the first two on each arc walk, and one charpoly
        # trace per walk
        assert len(rows_seen["solve_scaled"]) == 7 * len(graphs)
        assert len(rows_seen["trace_scaled"]) == 3 * len(graphs)
        assert all(rows_seen["solve_scaled"]) and all(rows_seen["trace_scaled"])

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_solve_sign_leaves_report_unchanged(self, mode, monkeypatch):
        # an exact s is a Bareiss determinant, of either sign: every route,
        # stationary's positivity check included, must read only X / s and t / s
        graphs = [gen_cycle_barbell(3, 4, 6), gen_complete_bipartite(3, 4),
                  gen_cycle_barbell(1, 3, 5)]
        want = [kemeny_triple(g, mode).to_json() for g in graphs]
        solve = engine._solve_scaled
        trace = engine._trace_scaled

        def negated(A, B, singular):
            s, X = solve(A, B, singular)
            return -s, -X

        def negated_trace(A, c, singular):
            s, t = trace(A, c, singular)
            return -s, -t

        monkeypatch.setattr(engine, "_solve_scaled", negated)
        monkeypatch.setattr(engine, "_trace_scaled", negated_trace)
        assert [kemeny_triple(g, mode).to_json() for g in graphs] == want

    def test_exact_routes_must_agree_exactly(self, monkeypatch):
        # a gap far below tol, which a float comparison would let pass
        charpoly = engine.kemeny_charpoly
        monkeypatch.setattr(engine, "kemeny_charpoly",
                            lambda P: charpoly(P) + F(1, 10**12))
        rep = kemeny_triple(gen_cycle_barbell(2, 3, 3), mode="exact")
        assert rep.failed
        assert all(r <= rep.tolerance for r in rep.residuals.values())

    def test_shift_identity_gap_fails(self, monkeypatch):
        # every walk's routes agree, but the edge walk is another graph's
        edge = engine.edge_transition
        other = gen_complete_bipartite(3, 3)
        monkeypatch.setattr(engine, "edge_transition", lambda g, exact: edge(other, exact=exact))
        rep = kemeny_triple(gen_complete(4), mode="exact")
        assert rep.failed and rep.identity_residual > 1
        assert all(r <= rep.tolerance for r in rep.residuals.values())

    def test_agree(self):
        assert agree(F(1, 3), F(1, 3), 0)
        assert not agree(F(1, 3), F(1, 3) + F(1, 10**30), 1.0)
        assert agree(1.0, 1.0 + 0.9e-9, 1e-9)
        assert not agree(1.0, 1.0 + 1.1e-9, 1e-9)
        # at K = 512 the bound is 4 tol; the smaller magnitude sets K, so
        # 1e6 cannot widen its own bound against 0
        assert agree(512.0, 512.0 + 3.5e-9, 1e-9)
        assert not agree(512.0, 512.0 + 4.5e-9, 1e-9)
        assert not agree(512.0 - 4.5e-9, 512.0, 1e-9)
        assert not agree(0.0, 1e6, 1.0)
        assert not agree(float("nan"), 1.0, 1.0)

    def test_json_round_trip(self):
        import json
        rep = kemeny_triple(gen_complete(4), mode="exact")
        d = json.loads(rep.to_json())
        assert d["kemeny"]["non-backtracking"] == "133/12"
        assert d["failed"] is False


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the nb walk forks only on POSIX")
class TestForkedWalk:
    # above EXACT_STATE_CAP arc states the nb walk runs in a forked child;
    # the CPU and thread counts are patched to take each path on any
    # machine, a multithreaded BLAS included

    @pytest.fixture
    def forks(self, monkeypatch):
        calls = []
        fork = os.fork

        def counted():
            calls.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        monkeypatch.setattr(engine, "_single_threaded", lambda: True)
        return calls

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("g", [
        gen_cycle_barbell(100, 4, 4),
        gen_cycle_barbell(2, 150, 150),
        random_cubic(66, random.Random(20261020)),  # 2m = 198
    ], ids=["CB(100,4,4)", "CB(2,150,150)", "cubic66"])
    def test_child_and_in_process_bytes_match(self, g, forks, monkeypatch):
        forked = kemeny_triple(g, mode="float").to_json()
        assert len(forks) == 1
        monkeypatch.setattr(engine, "_cpu_count", lambda: 1)
        assert kemeny_triple(g, mode="float").to_json() == forked
        assert len(forks) == 1
        self.assert_no_child_left()

    def test_failed_fork_runs_the_walk_in_process(self, forks, monkeypatch):
        # fork(2) fails with EAGAIN at the process limit
        g = gen_cycle_barbell(100, 4, 4)
        monkeypatch.setattr(engine, "_cpu_count", lambda: 1)
        in_process = kemeny_triple(g, mode="float").to_json()
        refused = []

        def eagain():
            refused.append(1)
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        monkeypatch.setattr(os, "fork", eagain)
        assert kemeny_triple(g, mode="float").to_json() == in_process
        assert len(refused) == 1 and not forks
        self.assert_no_child_left()

    def test_child_error_comes_back(self, forks, monkeypatch):
        def failing(g, exact):
            raise EngineError(f"nb chain refused in process {os.getpid()}")

        monkeypatch.setattr(engine, "nb_transition", failing)
        with pytest.raises(EngineError, match="nb chain refused") as exc:
            kemeny_triple(gen_cycle_barbell(100, 4, 4), mode="float")
        assert str(os.getpid()) not in str(exc.value)
        assert len(forks) == 1
        self.assert_no_child_left()

    def test_unpicklable_error_becomes_engine_error(self, forks, monkeypatch):
        class Local(Exception):  # a local class does not pickle
            pass

        def failing(g, exact):
            raise Local("not sendable")

        monkeypatch.setattr(engine, "nb_transition", failing)
        with pytest.raises(EngineError, match="Local.*not sendable"):
            kemeny_triple(gen_cycle_barbell(100, 4, 4), mode="float")
        self.assert_no_child_left()

    def test_killed_child_names_its_status(self, forks, monkeypatch):
        def killed(g, exact):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(engine, "nb_transition", killed)
        with pytest.raises(EngineError, match=f"status {-signal.SIGKILL}"):
            kemeny_triple(gen_cycle_barbell(100, 4, 4), mode="float")
        self.assert_no_child_left()

    def test_interrupted_caller_kills_its_child(self, forks, monkeypatch):
        # the child would sleep for a minute; the caller's finally ends it
        def slow(g, exact):
            time.sleep(60)

        def interrupted(g, exact):
            raise KeyboardInterrupt

        monkeypatch.setattr(engine, "nb_transition", slow)
        monkeypatch.setattr(engine, "edge_transition", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            kemeny_triple(gen_cycle_barbell(100, 4, 4), mode="float")
        assert time.monotonic() - start < 30
        self.assert_no_child_left()

    @pytest.mark.parametrize("mode", ["auto", "exact", "float"])
    def test_small_reports_never_fork(self, mode, monkeypatch):
        def no_fork():
            raise AssertionError("a report with at most 64 states per walk forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        monkeypatch.setattr(engine, "_single_threaded", lambda: True)
        g = gen_cycle_barbell(2, 15, 15)  # 2m = 62
        assert not kemeny_triple(g, mode=mode).failed

    def test_no_fork_beside_another_thread(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked beside a running thread")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            assert not engine._single_threaded()
            assert not kemeny_triple(gen_cycle_barbell(100, 4, 4), mode="float").failed
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()


# a threaded BLAS call, then one fork, reaped, as the census's search child
# leaves the process that started it
_FORK_ONCE = """
import os
import numpy as np
A = np.random.default_rng(0).random((400, 400))
A @ A
pid = os.fork()
if pid == 0:
    os._exit(0)
os.waitpid(pid, 0)
"""


class TestForkRule:
    # OpenBLAS stops its pool at a fork and restarts it at its next threaded
    # call, so after a fork the kernel's count reads one thread while the
    # BLAS is still set to more

    def test_no_walk_child_beside_a_stopped_pool(self, monkeypatch):
        blas = engine._openblas_threads()
        if blas is None:
            pytest.skip("no OpenBLAS thread-count symbol in numpy's libraries")
        if blas() < 2:
            pytest.skip("OpenBLAS is set to one thread")
        exec(_FORK_ONCE, {})
        assert not engine._single_threaded()

        def no_fork():
            raise AssertionError("forked beside a multithreaded BLAS")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        assert not kemeny_triple(gen_cycle_barbell(100, 4, 4), mode="float").failed

    def test_one_thread_blas_keeps_the_walk_child(self):
        # the bench's setting: compute-float runs its nb walk in a child
        if engine._thread_count() is None:
            pytest.skip("no kernel thread count on this platform")
        code = _FORK_ONCE + "from nbkemeny import engine\nprint(engine._single_threaded())\n"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        src = str(Path(engine.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\n"
