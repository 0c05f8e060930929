"""Exact rational and integer linear algebra kernels.

One fraction-free (Bareiss) elimination over plain Python ints serves
solves and determinants, and every division in it is exact.  The engine's
exact routes build their matrices integral and reach it through two kernel
entries, which clear nothing:

- ``solve_scaled(A, B) -> (d, X)`` with A X = d B returns integers over one
  common denominator (stationary, mfpt and resistance routes);
- ``trace_scaled(A, c) -> (d, t)`` with t / d = tr(A^{-1} diag(c)) runs
  Bareiss elimination over the dual integers, det(A + eps diag(c)) =
  d + t eps, and builds no inverse (charpoly route).

``exact_solve`` and ``exact_inverse`` are the Fraction-accepting wrappers:
they clear their input's row denominators (``clear_row_denominators``),
call ``solve_scaled`` and divide by d.

The pencil functions (``pencil_poly``, ``charpoly_pencil``) and
``kemeny_from_charpoly`` are the exact reference for the engine's charpoly
route: they build the whole characteristic polynomial from N + 1 Bareiss
determinants, a computation the route itself does not share.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm
from typing import Sequence, Union

Scalar = Union[int, Fraction]


def _bareiss(M: list[list[int]], n: int) -> int:
    """Fraction-free forward elimination of integer rows, in place.

    Pivots in the first n columns and carries any further columns along as
    right-hand sides.  Afterwards M[k][k] is the k-th leading principal minor
    of the row-permuted matrix.  Returns the permutation sign, or 0 if the
    first n columns are singular.

    Each row keeps the set of columns that may be nonzero in it, and an
    update runs only over the union of that set and the pivot row's: a
    column that is zero in both rows stays zero, so the integers are those
    of the update over the full width.
    """
    columns = range(len(M[0]))
    support = [set(compress(columns, row)) for row in M]
    sign = 1
    prev = 1
    for k in range(n):
        if M[k][k] == 0:
            for r in range(k + 1, n):
                if M[r][k]:
                    M[k], M[r] = M[r], M[k]
                    support[k], support[r] = support[r], support[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = M[k][k]
        Mk = M[k]
        Sk = support[k]
        Sk.discard(k)
        for i in range(k + 1, n):
            Mi = M[i]
            mik = Mi[k]
            Si = support[i]
            Si.discard(k)
            if mik:
                Si |= Sk
                for j in Si:
                    Mi[j] = (Mi[j] * pk - mik * Mk[j]) // prev
                Mi[k] = 0
            elif prev != pk:
                for j in Si:
                    Mi[j] = (Mi[j] * pk) // prev
        prev = pk
    return sign


def solve_scaled(
    A: Sequence[Sequence[int]], B: Sequence[Sequence[int]],
) -> tuple[int, list[list[int]]]:
    """(d, X) with A X = d B, for integral A (n x n) and B (n x k): X is
    integral and d is the nonzero determinant of A up to sign.

    This is the one exact solve; it clears no denominators.  Bareiss
    elimination of [A | B] leaves d X integral, d being the last pivot, so
    back-substitution runs on it over integers and every division is exact.
    It works on whole rows: row i of d X is d times row i of the eliminated
    B, less the rows of d X below it scaled by row i's nonzero entries of A,
    divided by its pivot.  The empty system gives (1, []), as det of the
    empty matrix is 1.  Raises ValueError if A is singular.
    """
    n = len(A)
    if n == 0:
        return 1, []
    M = [[*a, *b] for a, b in zip(A, B)]
    if not _bareiss(M, n):
        raise ValueError("singular matrix")
    det = M[n - 1][n - 1]
    X: list[list[int]] = [[]] * n
    for i in range(n - 1, -1, -1):
        Mi = M[i]
        acc = [det * b for b in Mi[n:]]
        for j in range(i + 1, n):
            mij = Mi[j]
            if mij:
                acc = [a - mij * x for a, x in zip(acc, X[j])]
        X[i] = [a // Mi[i] for a in acc]
    return det, X


def trace_scaled(A: Sequence[Sequence[int]], c: Sequence[int]) -> tuple[int, int]:
    """(d, t) with t / d = tr(A^{-1} diag(c)), for integral A (n x n) and c:
    d + t eps = det(A + eps diag(c)) over the dual integers Z[eps]/(eps^2).

    By Jacobi's formula det(A + eps diag(c)) = det(A) (1 + eps tr(A^{-1}
    diag(c))), so one elimination gives the trace, with no right-hand side
    and no back-substitution.  It is ``_bareiss`` over dual integers: each
    row is a real and an eps part, and the pivot is chosen by the real part,
    which is eliminated exactly as ``_bareiss`` eliminates A.  Sylvester's
    identity holds over any commutative ring, so every division is exact:
    x / p with p_0 != 0 is q_0 = x_0 // p_0, q_1 = (x_1 - q_0 p_1) // p_0.
    d is the determinant of A, sign included.  Raises ValueError if A is
    singular.
    """
    n = len(A)
    R = [list(row) for row in A]
    E = [[0] * n for _ in range(n)]
    for i, ci in enumerate(c):
        E[i][i] = ci
    support = [set(compress(range(n), row)) | {i} for i, row in enumerate(R)]
    sign = 1
    r0, r1 = 1, 0
    for k in range(n):
        if R[k][k] == 0:
            for r in range(k + 1, n):
                if R[r][k]:
                    R[k], R[r] = R[r], R[k]
                    E[k], E[r] = E[r], E[k]
                    support[k], support[r] = support[r], support[k]
                    sign = -sign
                    break
            else:
                raise ValueError("singular matrix")
        Rk = R[k]
        Ek = E[k]
        p0 = Rk[k]
        p1 = Ek[k]
        Sk = support[k]
        Sk.discard(k)
        for i in range(k + 1, n):
            Ri = R[i]
            Ei = E[i]
            m0 = Ri[k]
            m1 = Ei[k]
            Si = support[i]
            Si.discard(k)
            if m0 or m1:
                Si |= Sk
                for j in Si:
                    a0 = Ri[j]
                    b0 = Rk[j]
                    q0 = (a0 * p0 - m0 * b0) // r0
                    Ri[j] = q0
                    Ei[j] = (a0 * p1 + Ei[j] * p0 - m0 * Ek[j] - m1 * b0 - q0 * r1) // r0
                Ri[k] = Ei[k] = 0
            elif p0 != r0 or p1 != r1:
                for j in Si:
                    a0 = Ri[j]
                    q0 = a0 * p0 // r0
                    Ri[j] = q0
                    Ei[j] = (a0 * p1 + Ei[j] * p0 - q0 * r1) // r0
        r0, r1 = p0, p1
    return sign * r0, sign * r1


def exact_solve(A: Sequence[Sequence[Scalar]], b: Sequence[Scalar]) -> list[Fraction]:
    """Solve A x = b exactly: clear the rows of [A | b], then ``solve_scaled``.

    Raises ValueError if A is singular.
    """
    n = len(A)
    _, M = clear_row_denominators([[*r, bi] for r, bi in zip(A, b)])
    d, X = solve_scaled([r[:n] for r in M], [r[n:] for r in M])
    return [Fraction(x, d) for (x,) in X]


def exact_inverse(A: Sequence[Sequence[Scalar]]) -> list[list[Fraction]]:
    """Invert a matrix exactly: clear A = diag(E)^{-1} F, then
    ``solve_scaled`` F Y = d diag(E), so that A Y = d I.

    Raises ValueError if A is singular.
    """
    E, F = clear_row_denominators(A)
    d, Y = solve_scaled(F, [[e * (i == j) for j in range(len(E))] for i, e in enumerate(E)])
    return [[Fraction(v, d) for v in row] for row in Y]


def bareiss_det(M: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (destroys M)."""
    n = len(M)
    if n == 0:
        return 1
    return _bareiss(M, n) * M[n - 1][n - 1]


def clear_row_denominators(
    P: Sequence[Sequence[Scalar]],
) -> tuple[list[int], list[list[int]]]:
    """Return (E, F) with E a positive integer diagonal and F = diag(E) @ P
    integer, i.e. P = diag(E)^{-1} F."""
    E: list[int] = []
    F: list[list[int]] = []
    for row in P:
        l = lcm(*(x.denominator for x in row))
        E.append(l)
        F.append([x.numerator * (l // x.denominator) for x in row])
    return E, F


def pencil_poly(A0: Sequence[Sequence[int]], A1: Sequence[Sequence[int]]) -> list[int]:
    """Exact coefficients (ascending) of det(A0 + x*A1) for integer matrices.

    Evaluates the determinant at N+1 integer points with Bareiss elimination
    and recovers the coefficients by Newton interpolation; the result is
    integral by construction.
    """
    n = len(A0)
    pts: list[int] = [0]
    step = 1
    while len(pts) < n + 1:
        pts.append(step)
        if len(pts) < n + 1:
            pts.append(-step)
        step += 1
    vals = []
    for t in pts:
        M = [[A0[i][j] + t * A1[i][j] for j in range(n)] for i in range(n)]
        vals.append(bareiss_det(M))
    return _newton_interpolate(pts, vals)


def _newton_interpolate(pts: list[int], vals: list[int]) -> list[int]:
    k = len(pts)
    coef = [Fraction(v) for v in vals]
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (pts[i] - pts[i - j])
    # expand the Newton form back to monomial coefficients (Horner over nodes)
    poly = [Fraction(0)] * k
    poly[0] = coef[k - 1]
    deg = 0
    for i in range(k - 2, -1, -1):
        # poly <- poly * (x - pts[i]) + coef[i]
        deg += 1
        c = pts[i]
        for d in range(deg, 0, -1):
            poly[d] = poly[d - 1] - c * poly[d]
        poly[0] = coef[i] - c * poly[0]
    out = []
    for c in poly:
        if c.denominator != 1:
            raise ArithmeticError("interpolation of an integer polynomial gave a non-integer")
        out.append(int(c))
    return out


def charpoly_pencil(P: Sequence[Sequence[Scalar]]) -> list[int]:
    """Integer multiple of the characteristic polynomial of a rational matrix.

    Returns ascending coefficients of det(xE - F) = det(E) * charpoly(P)
    where E clears the row denominators of P.  Only scale-invariant
    consumers (root structure, Kemeny extraction) should use this.
    """
    E, F = clear_row_denominators(P)
    n = len(E)
    A0 = [[-F[i][j] for j in range(n)] for i in range(n)]
    A1 = [[E[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return pencil_poly(A0, A1)


def kemeny_from_charpoly(coeffs: Sequence[Scalar]) -> Fraction:
    """Kemeny's constant from exact (int/Fraction) characteristic-polynomial
    coefficients (ascending).  Any nonzero scalar multiple of the polynomial
    gives the same value: K = p''(1) / (2 p'(1)).

    Raises ValueError unless 1 is a simple root.
    """
    p1 = sum(Fraction(c) for c in coeffs)
    d1 = sum(j * Fraction(c) for j, c in enumerate(coeffs))
    d2 = sum(j * (j - 1) * Fraction(c) for j, c in enumerate(coeffs))
    if p1 != 0:
        raise ValueError("1 is not a root of the characteristic polynomial")
    if d1 == 0:
        raise ValueError("unit root is not simple: linear coefficient vanishes")
    return d2 / (2 * d1)


def poly_eval(coeffs: Sequence[Scalar], x: Scalar) -> Scalar:
    acc: Scalar = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def format_scalar(x) -> str:
    """Render a scalar for serialized output: Fractions as 'p/q', floats to
    12 significant digits, ints as-is."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.12g}"
