"""Reference fraction-free kernels for the ratmath tests.

These are ``ratmath._bareiss`` and the solve that is now
``ratmath.solve_scaled`` (then ``_solve``, which cleared the rows of
[A | B] itself), with its callers ``exact_inverse_scaled`` and
``bareiss_det``, as they stood before back-substitution ran on row vectors
and skipped zero multipliers.  The tests require the library to return the
same determinant, the same integers and the same permutation sign, so the
bodies below must stay as they are.
"""

from __future__ import annotations

from typing import Sequence

from nbkemeny.ratmath import Scalar, clear_row_denominators


def _bareiss(M: list[list[int]], n: int) -> int:
    """Fraction-free forward elimination of integer rows, in place.

    Pivots in the first n columns and carries any further columns along as
    right-hand sides.  Afterwards M[k][k] is the k-th leading principal minor
    of the row-permuted matrix.  Returns the permutation sign, or 0 if the
    first n columns are singular.
    """
    width = len(M[0])
    sign = 1
    prev = 1
    for k in range(n):
        if M[k][k] == 0:
            for r in range(k + 1, n):
                if M[r][k]:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = M[k][k]
        Mk = M[k]
        for i in range(k + 1, n):
            Mi = M[i]
            mik = Mi[k]
            if mik:
                for j in range(k + 1, width):
                    Mi[j] = (Mi[j] * pk - mik * Mk[j]) // prev
                Mi[k] = 0
            elif prev != pk:
                for j in range(k + 1, width):
                    Mi[j] = (Mi[j] * pk) // prev
        prev = pk
    return sign


def _solve(rows: list[list[Scalar]], n: int, what: str) -> tuple[int, list[list[int]]]:
    """Solve A X = B exactly from the rows of [A | B], A being n x n.

    Returns (d, Y) with X = Y / d.  After elimination d * X is integral, d
    being the last pivot, so back-substitution runs on it over integers and
    every division is exact.
    """
    _, M = clear_row_denominators(rows)
    if not _bareiss(M, n):
        raise ValueError(f"singular {what}")
    det = M[n - 1][n - 1]
    X: list[list[int]] = [[]] * n
    for i in range(n - 1, -1, -1):
        Mi = M[i]
        X[i] = [(det * Mi[c] - sum(Mi[j] * X[j][c - n] for j in range(i + 1, n))) // Mi[i]
                for c in range(n, len(Mi))]
    return det, X


def exact_inverse_scaled(A: Sequence[Sequence[Scalar]]) -> tuple[int, list[list[int]]]:
    """(d, Y) with A Y = d I and Y integral: the inverse before its division
    by the nonzero integer d, so products with it need no Fraction arithmetic.

    Raises ValueError if A is singular.
    """
    n = len(A)
    return _solve([[*r] + [int(i == j) for j in range(n)] for i, r in enumerate(A)], n, "matrix")


def bareiss_det(M: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (destroys M)."""
    n = len(M)
    if n == 0:
        return 1
    return _bareiss(M, n) * M[n - 1][n - 1]
