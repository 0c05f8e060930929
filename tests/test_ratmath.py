"""Exact linear algebra kernels against numpy oracles."""

import random
from fractions import Fraction

import numpy as np
import pytest

import ratmath_reference as reference
from conftest import BIREG23_EDGES, CUBE_EDGES, PETERSEN_EDGES
from nbkemeny import (
    build_matrix,
    from_edge_list,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle_barbell,
    gen_necklace,
    stationary,
)
from nbkemeny.ratmath import (
    bareiss_det,
    charpoly_pencil,
    clear_row_denominators,
    exact_inverse,
    exact_solve,
    format_scalar,
    pencil_poly,
    poly_eval,
    poly_mul,
    solve_scaled,
    trace_scaled,
)


def random_int_matrix(n, rng, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


# rows with unequal denominators, the shape every engine caller passes
FRACTION_MATRIX = [[Fraction(1, 2), Fraction(1, 3), 0],
                   [Fraction(2, 5), 1, Fraction(-1, 7)],
                   [0, Fraction(3, 4), Fraction(5, 6)]]
# zero (0, 0) pivot forces a row swap; the determinant is -13
SWAP_MATRIX = [[0, 2, 1], [3, 1, 0], [1, 0, 2]]


def scaled_inverse(A):
    """(d, Y) with A Y = d I: ``solve_scaled`` of A's cleared rows F against
    its row denominators, F Y = d diag(E), as ``exact_inverse`` calls it."""
    E, F = clear_row_denominators(A)
    return solve_scaled(F, [[e * (i == j) for j in range(len(E))] for i, e in enumerate(E)])


def nonsingular_cases(rng, sizes):
    for n in sizes:
        A = random_int_matrix(n, rng)
        while abs(np.linalg.det(np.array(A, dtype=float))) < 0.5:
            A = random_int_matrix(n, rng)
        yield A
    yield FRACTION_MATRIX
    yield SWAP_MATRIX


class TestSolve:
    def test_matches_numpy(self):
        rng = random.Random(11)
        for A in nonsingular_cases(rng, (1, 2, 5, 8)):
            n = len(A)
            b = [rng.randint(-9, 9) for _ in range(n)]
            x = exact_solve(A, b)
            want = np.linalg.solve(np.array(A, dtype=float),
                                   np.array(b, dtype=float))
            assert np.allclose([float(v) for v in x], want, atol=1e-9)
            # residual is exactly zero in rational arithmetic
            for i in range(n):
                assert sum(Fraction(A[i][j]) * x[j] for j in range(n)) == b[i]

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            exact_solve([[1, 2], [2, 4]], [1, 1])
        with pytest.raises(ValueError):
            exact_inverse([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        with pytest.raises(ValueError):
            exact_inverse([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 4), Fraction(1, 2)]])

    def test_inverse(self):
        rng = random.Random(3)
        for A in nonsingular_cases(rng, (4,)):
            n = len(A)
            inv = exact_inverse(A)
            prod = [[sum(Fraction(A[i][k]) * inv[k][j] for k in range(n))
                     for j in range(n)] for i in range(n)]
            assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def test_scaled_inverse_is_integral(self):
        rng = random.Random(3)
        for A in nonsingular_cases(rng, (1, 4)):
            n = len(A)
            d, Y = scaled_inverse(A)
            assert d != 0
            assert all(type(v) is int for row in Y for v in row)
            prod = [[sum(Fraction(A[i][k]) * Y[k][j] for k in range(n))
                     for j in range(n)] for i in range(n)]
            assert prod == [[d if i == j else 0 for j in range(n)] for i in range(n)]
        with pytest.raises(ValueError):
            solve_scaled([[1, 2], [2, 4]], [[1, 0], [0, 1]])


class TestDeterminant:
    def test_matches_numpy(self):
        rng = random.Random(5)
        for n in (1, 2, 3, 6, 10):
            A = random_int_matrix(n, rng)
            want = round(np.linalg.det(np.array(A, dtype=float)))
            assert bareiss_det([row[:] for row in A]) == want
        assert bareiss_det([row[:] for row in SWAP_MATRIX]) == -13

    def test_singular_is_zero(self):
        A = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
        assert bareiss_det(A) == 0

    def test_empty_matrix(self):
        assert bareiss_det([]) == 1
        assert solve_scaled([], []) == (1, [])


def named_graphs():
    return [gen_complete(4), gen_complete(5), gen_complete_bipartite(3, 3),
            gen_complete_bipartite(2, 3), from_edge_list(10, PETERSEN_EDGES),
            from_edge_list(8, CUBE_EDGES), gen_necklace(2), gen_cycle_barbell(2, 3, 3),
            gen_cycle_barbell(3, 4, 6), from_edge_list(10, BIREG23_EDGES)]


def walk_blocks():
    """The matrices the engine hands the kernel, one triple for every named
    graph and walk: I - P + 1 e_N^T (mfpt route), I - P + 1 pi^T (its
    Kemeny-Snell form, with larger integers) and I - (P[1:, 1:] - P[0, 1:])
    (charpoly)."""
    for g in named_graphs():
        for kind in ("vertex", "edge", "non-backtracking"):
            P = build_matrix(g, kind, exact=True)
            I = np.eye(P.order, dtype=object)
            generalized = I - P.data
            generalized[:, -1] += 1
            yield (generalized.tolist(), (I - P.data + stationary(P)).tolist(),
                   (I[1:, 1:] - (P.data[1:, 1:] - P.data[0, 1:])).tolist())


def walk_matrices():
    for triple in walk_blocks():
        yield from triple


class TestAgainstReference:
    """The row-wise kernel returns the integers the entry-wise one did."""

    def cases(self):
        rng = random.Random(20261018)
        yield from nonsingular_cases(rng, range(1, 13))
        yield from walk_matrices()

    def test_inverse_scaled(self):
        for A in self.cases():
            assert scaled_inverse(A) == reference.exact_inverse_scaled(A)

    def test_solve(self):
        rng = random.Random(7)
        for A in self.cases():
            n = len(A)
            rows = [[*r, rng.randint(-9, 9)] for r in A]
            d, Y = reference._solve([r[:] for r in rows], n, "system")
            _, M = clear_row_denominators(rows)
            assert solve_scaled([r[:n] for r in M], [r[n:] for r in M]) == (d, Y)
            assert exact_solve(A, [r[-1] for r in rows]) == [Fraction(y[0], d) for y in Y]

    def test_det(self):
        rng = random.Random(5)
        for n in range(1, 13):
            A = random_int_matrix(n, rng, -3, 3)
            assert bareiss_det([r[:] for r in A]) == reference.bareiss_det([r[:] for r in A])
        for A in self.cases():
            _, F = clear_row_denominators(A)
            assert bareiss_det([r[:] for r in F]) == reference.bareiss_det([r[:] for r in F])

    def test_singular_raises_in_both(self):
        # I - P itself is singular: its rows sum to zero
        P = build_matrix(gen_complete_bipartite(2, 3), "edge", exact=True).data
        singular = [[[1, 2], [2, 4]], [[1, 2, 3], [2, 4, 6], [1, 0, 1]],
                    (np.eye(len(P), dtype=object) - P).tolist()]
        for A in singular:
            for kernel in (scaled_inverse, reference.exact_inverse_scaled):
                with pytest.raises(ValueError):
                    kernel(A)
            _, F = clear_row_denominators(A)
            assert bareiss_det([r[:] for r in F]) == reference.bareiss_det([r[:] for r in F]) == 0


class TestTraceScaled:
    """det(A + eps diag(c)) over the dual integers against the reference
    kernels: the determinant, and the trace of the reference inverse."""

    def check(self, A, c):
        d, t = trace_scaled(A, c)
        assert type(d) is int and type(t) is int
        assert d == reference.bareiss_det([r[:] for r in A])
        s, Y = reference.exact_inverse_scaled(A)
        assert Fraction(t, d) == sum(Fraction(ci * Y[i][i], s) for i, ci in enumerate(c))

    def test_nonsingular_cases(self):
        rng = random.Random(20261020)
        for A in nonsingular_cases(rng, range(1, 13)):
            _, F = clear_row_denominators(A)
            self.check(F, [rng.randint(-5, 5) for _ in F])
        # the zero (0, 0) pivot has a nonzero eps part, and the pivot is
        # still chosen by the real part
        self.check(SWAP_MATRIX, [2, -1, 3])
        self.check(SWAP_MATRIX, [0, 0, 0])

    def test_charpoly_blocks(self):
        # c clears the rows of I - P22, as the engine's weights do, so t / d
        # is tr((I - P22)^{-1}), Kemeny's constant of the walk
        for *_, block in walk_blocks():
            c, F = clear_row_denominators(block)
            self.check(F, c)
            d, t = trace_scaled(F, c)
            s, Y = reference.exact_inverse_scaled(block)
            assert Fraction(t, d) == Fraction(sum(Y[i][i] for i in range(len(Y))), s)

    def test_empty_matrix(self):
        assert trace_scaled([], []) == (1, 0)

    def test_singular_raises(self):
        # I - P itself is singular: its rows sum to zero
        P = build_matrix(gen_complete_bipartite(2, 3), "edge", exact=True).data
        _, F = clear_row_denominators((np.eye(len(P), dtype=object) - P).tolist())
        for A in ([[1, 2], [2, 4]], [[1, 2, 3], [2, 4, 6], [1, 0, 1]], F):
            with pytest.raises(ValueError):
                trace_scaled(A, [1] * len(A))


class TestPencil:
    def test_clear_row_denominators(self):
        P = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(2, 5), 1]]
        E, F = clear_row_denominators(P)
        assert E == [6, 5]
        assert F == [[3, 2], [2, 5]]

    def test_integral_rows_pass_through(self):
        # a row of ints clears to E = 1 with the same ints in a new list;
        # a mixed row clears as before
        rows = [[3, 0, -2], [Fraction(1, 2), 1, Fraction(-1, 3)]]
        E, F = clear_row_denominators(rows)
        assert E == [1, 6]
        assert F == [[3, 0, -2], [3, 6, -2]]
        assert all(type(x) is int for row in F for x in row)
        assert F[0] is not rows[0]

    def test_charpoly_matches_numpy_roots(self):
        rng = random.Random(17)
        for n in (2, 4, 6):
            # random row-stochastic rational matrix
            P = []
            for _ in range(n):
                w = [rng.randint(1, 5) for _ in range(n)]
                t = sum(w)
                P.append([Fraction(x, t) for x in w])
            coeffs = charpoly_pencil(P)
            assert len(coeffs) == n + 1
            roots = np.roots(list(reversed([float(c) for c in coeffs])))
            evals = np.linalg.eigvals(np.array([[float(x) for x in row]
                                                for row in P]))
            assert np.allclose(sorted(roots.real), sorted(evals.real), atol=1e-6)
            # unit eigenvalue of a stochastic matrix is a root, exactly
            assert poly_eval(coeffs, 1) == 0

    def test_pencil_poly_known(self):
        # det([[x, 1], [1, x]]) = x^2 - 1
        A0 = [[0, 1], [1, 0]]
        A1 = [[1, 0], [0, 1]]
        assert pencil_poly(A0, A1) == [-1, 0, 1]


class TestPolyHelpers:
    def test_poly_mul(self):
        # (1 + x)(1 - x) = 1 - x^2
        assert poly_mul([1, 1], [1, -1]) == [1, 0, -1]

    def test_poly_eval_fraction(self):
        assert poly_eval([1, 2, 3], Fraction(1, 2)) == Fraction(11, 4)

    def test_format_scalar(self):
        assert format_scalar(Fraction(88, 3)) == "88/3"
        assert format_scalar(Fraction(4, 2)) == "2/1"
        assert format_scalar(7) == "7"
        assert format_scalar(0.1) == "0.1"
