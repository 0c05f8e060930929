"""Kemeny's constant by four independent routes, with cross-validation.

Routes
------
mfpt       definition: K = sum_j m(0, j) pi_j = tr G - (G 1)_0 for
           G = (I - P + 1 e_N^T)^{-1}, a generalized inverse of I - P with
           the passage times of Kemeny and Snell's Z (Hunter 1982), read off
           X = s G as (tr X - sum_j X_0j) / s; pi enters only the first-step
           check (I - P) G = I - 1 pi^T
spectrum   K = sum over non-unit eigenvalues of 1/(1 - rho)
charpoly   K = p''(1) / (2 p'(1)) from the characteristic polynomial, as
           tr((I - P22)^{-1}) for the block P22 = P[1:, 1:] - P[0, 1:] that
           the one similarity S = [1 | e2 ... eN] leaves beside the unit root
resistance K = d^T R d / (4m) for the vertex walk, from one inverse H of the
           grounded Laplacian L_0 (L without row and column 0), sparse and
           integral, with r(i, j) = h_ii + h_jj - 2 h_ij

The three walks of a graph (vertex, edge-space, non-backtracking) are tied
together by ``kemeny_triple``, which runs every applicable route per walk,
records disagreements, and checks the edge/vertex shift identity
K_e = K_v + 2m - n, every check by one rule, ``agree``.  A non-backtracking
walk of more than ``EXACT_STATE_CAP`` states runs in one forked child beside
the other two walks where a second CPU is idle for it, with the same routes
and the same report bytes (see ``kemeny_triple``).  That child is a
``_ForkedStream``, the package's one way to run work in another process;
the census's graph search runs in one too, and both fall back to this
process by ``_fork``.

Scalar mode
-----------
A chain's dtype is its scalar mode: object arrays hold exact ints and
Fractions, float64 arrays floats.  Each route has one body for both.  It
builds its matrix from a chain's integer rows (``ChainMatrix.rows``, with
e = 1 in float mode) or from the graph, so an exact route hands ``ratmath``
only integers.  Two dispatches reach the linear algebra, one per kernel
entry of ``ratmath``.  Every solve and inverse goes through
``_solve_scaled(A, B)``, which returns (s, X) with A X = s B: in exact mode
``ratmath.solve_scaled``'s integral X over one integer s, so products with
X run over integers, and in float mode ``np.linalg.solve`` with s = 1.0.
The charpoly route needs one trace, and ``_trace_scaled(A, c)`` returns
(s, t) with t / s = tr(A^{-1} diag(c)): in exact mode the two ints of
``ratmath.trace_scaled``, which builds no inverse, and in float mode the
trace of ``np.linalg.solve``'s inverse with s = 1.0, also over a stack of
matrices (``kemeny_charpoly_stack``, which the census calls with its
batches of walks).  A comparison's bound
is 0 in exact mode, so one test serves both.  Routes return Fractions or
builtin floats.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import pickle
import signal
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as np

from . import ratmath
from .chains import (
    TRANSITION_KINDS,
    ChainMatrix,
    adjacency_matrix,
    degree_matrix,
    edge_transition,
    integer_rows,
    nb_transition,
    nb_walk_defect,
    vertex_transition,
)
from .graphs import Graph

Scalar = Union[Fraction, float]

# Largest walk, in states, that mode 'auto' computes in exact rationals.
EXACT_STATE_CAP = 64

# tol of kemeny_triple, compute --tol and the census tie (see agree)
DEFAULT_TOL = 1e-9


class EngineError(RuntimeError):
    """Raised when a walk computation cannot proceed (reducible chain,
    non-simple unit eigenvalue, disconnected graph)."""


# ---------------------------------------------------------------------------
# the solve dispatch

def _solve_scaled(A: np.ndarray, B: np.ndarray, singular: str) -> tuple[Scalar, np.ndarray]:
    """(s, X) with A X = s B, in the scalar mode of A.

    In exact mode A and B are integral, and ``ratmath.solve_scaled`` returns
    a nonzero integer s, of either sign, and an integral X, so products with
    X run over integers.  In float mode s = 1.0 and X = A^{-1} B from
    ``np.linalg.solve``.  A singular A raises EngineError(singular).
    """
    try:
        if A.dtype != object:
            return 1.0, np.linalg.solve(A, B)
        s, X = ratmath.solve_scaled(A.tolist(), B.tolist())
    except ValueError as exc:  # np.linalg.LinAlgError is a ValueError
        raise EngineError(singular) from exc
    return s, np.array(X, dtype=object)


def _trace_scaled(A: np.ndarray, c: np.ndarray, singular: str) -> tuple[Scalar, Scalar]:
    """(s, t) with t / s = tr(A^{-1} diag(c)), in the scalar mode of A.

    In exact mode A and c are integral, and ``ratmath.trace_scaled`` returns
    s = det(A) and t = s tr(A^{-1} diag(c)) as ints, from one elimination
    over the dual integers that builds no inverse.  In float mode A may
    carry leading axes, a stack of matrices, and t is then an array over
    them: s = 1.0 and t is read off the inverses of one stacked
    ``np.linalg.solve``.  A singular A raises EngineError(singular).
    """
    try:
        if A.dtype != object:
            X = np.linalg.solve(A, np.eye(A.shape[-1]))
            return 1.0, np.sum(c * np.diagonal(X, axis1=-2, axis2=-1), axis=-1)
        return ratmath.trace_scaled(A.tolist(), c.tolist())
    except ValueError as exc:  # np.linalg.LinAlgError is a ValueError
        raise EngineError(singular) from exc


def _ratio(num, den, exact: bool) -> Scalar:
    """num / den as a route's result: one Fraction of two ints in exact
    mode, a builtin float in float mode."""
    return Fraction(num, den) if exact else float(num / den)


# ---------------------------------------------------------------------------
# stationary distribution and mean first-passage times

def stationary(P: ChainMatrix) -> np.ndarray:
    """Stationary distribution of an irreducible chain, by linear solve.

    Replaces one balance equation with the normalization sum(pi) = 1 and
    verifies the result; a reducible chain surfaces as a singular system or
    a failed verification.  Both read P's rows (e, F) and y = pi / e:
    (diag(e) - F^T) y = 0.  One ``_solve_scaled`` gives (s, Y) with y = Y / s,
    and the check runs on Y: F^T Y = e Y, over ints with bound 0 in exact
    mode (e = 1, s = 1.0 and bound 1e-10 in float), and s Y > 0.
    """
    N = P.order
    e, F = P.rows
    I = np.eye(N, dtype=F.dtype)
    A = I * e - F.T
    A[N - 1] = e
    s, X = _solve_scaled(A, I[:, N - 1:], "chain is reducible: stationary system is singular")
    Y = X[:, 0]
    tol = 0 if P.exact else 1e-10
    if np.max(np.abs(F.T @ Y - e * Y)) > tol or np.min(s * Y) <= 0:
        raise EngineError("chain is reducible: stationary verification failed")
    return Y * e * _ratio(1, s, P.exact)


def _fundamental(P: ChainMatrix) -> tuple[np.ndarray, Scalar, np.ndarray]:
    """(pi, s, X): the stationary vector and a generalized inverse
    G = (I - P + 1 e_N^T)^{-1} of I - P as X = s G, from one inverse (see
    ``_solve_scaled``).

    For any u with u^T 1 = 1, (I - P + 1 u^T)^{-1} = Z - 1 (u - pi)^T Z,
    where Z = (I - P + 1 pi^T)^{-1} is the fundamental matrix of Kemeny and
    Snell (J. J. Hunter, "Generalized inverses and their application to
    applied probability problems", Linear Algebra Appl. 45, 1982).  So
    G = Z + 1 w^T: each column moves by a constant, which cancels in the
    passage times g_jj - g_ij, and G 1 = 1 and tr G = tr Z as for Z.
    Unlike Z, G's matrix does not contain pi, whose entries on an arc walk
    are 1/(2m): its rows clear by P's row denominators alone, so an exact
    inverse stays on small integers (s has 49 bits on CB(2,15,15)'s edge
    walk, where Z's has 362).  The ones go in state N's column, not state
    0's: the charpoly route deflates at state 0, and the two routes share no
    block.  From P's rows (e, F), P = diag(e)^{-1} F, the route builds
    diag(e) (I - P + 1 e_N^T) = diag(e) - F + e e_N^T, integral in exact
    mode, and its inverse (s, Y) gives X = Y diag(e) (float: e = 1).  pi is
    still computed, and verified by ``stationary``: ``mfpt`` divides by it,
    and the first-step check reads it.
    """
    pi = stationary(P)
    e, F = P.rows
    A = -F
    A[:, -1] += e
    A[np.diag_indices(P.order)] += e
    I = np.eye(P.order, dtype=A.dtype)
    s, Y = _solve_scaled(A, I, "chain is reducible: fundamental matrix is singular")
    return pi, s, Y * e


def _first_step_residual(P: ChainMatrix, pi: np.ndarray, s: Scalar, X: np.ndarray) -> float:
    """max |(I - P) G - (I - 1 pi^T)| for G = X / s, with P X taken over P's
    nonzeros.

    The equations hold only when pi is the stationary vector, and they fix
    (1 diag(G)^T - G) diag(pi)^{-1} as the mean first-passage matrix: the
    kernel of I - P is span 1, and G + 1 w^T gives the same matrix, so the
    check reads the same for G as for Kemeny and Snell's Z.  Row i is
    computed times e_i q s, with (e, F) P's rows and q clearing pi, so in
    exact mode it runs over integers; in float mode e = q = 1 and s = 1.0.
    """
    e, F = P.rows
    q, (qpi,) = integer_rows(pi[None])
    T = X * q
    T += s * qpi
    T *= np.reshape(e, (-1, 1))
    T[np.diag_indices(P.order)] -= e * (q * s)
    for i, row in enumerate(F):
        nz = np.flatnonzero(row)
        T[i] -= q * (row[nz] @ X[nz])
    return float(np.max(np.max(np.abs(T), axis=1) / (e * (q * abs(s)))))


def mfpt(P: ChainMatrix) -> np.ndarray:
    """Mean first-passage time matrix from the generalized inverse G of
    ``_fundamental``, m(i, j) = (g_jj - g_ij) / pi_j; the diagonal is zero.
    These are the times Kemeny and Snell's Z gives: G - Z = 1 w^T."""
    pi, s, X = _fundamental(P)
    return (np.diag(X) - X) / (s * pi)


def kemeny_mfpt(P: ChainMatrix) -> tuple[Scalar, float]:
    """Kemeny's constant from mean first-passage times.

    Returns (K, residual) where K = sum_j m(0, j) pi_j and residual is the
    max-abs residual of the first-step equations (I - P) G = I - 1 pi^T
    (zero in theory).  Each m(0, j) pi_j is g_jj - g_0j, so pi cancels and K
    is tr G - (G 1)_0, read off X = s G as (tr X - sum_j X_0j) / s.  pi
    enters only the first-step check.  In float mode the residual also
    measures the error of the inverse.  In exact mode G is an exact
    inverse, so (I - P) G = I - 1 e_N^T G, and e_N^T G is the true
    stationary vector: the residual is the largest entry of |pi - e_N^T G|,
    zero exactly when pi is stationary, which ``stationary`` has already
    verified with bound 0, and it adds nothing to that verification.
    """
    pi, s, X = _fundamental(P)
    return _ratio(np.trace(X) - np.sum(X[0]), s, P.exact), _first_step_residual(P, pi, s, X)


# ---------------------------------------------------------------------------
# spectrum route

@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a transition matrix, sorted by descending real part
    then descending imaginary part."""

    values: tuple[complex, ...]

    def __post_init__(self):
        if any(abs(v) > 1 + UNIT_TOL for v in self.values):
            raise EngineError("spectral radius exceeds 1 beyond tolerance")

    @classmethod
    def of_chain(cls, P: ChainMatrix) -> "Spectrum":
        Pf = P.as_float()
        if P.kind == "vertex":
            # the simple walk is similar to a symmetric matrix: use the
            # stable symmetric solver on D^{1/2} P D^{-1/2} when it is one
            half = np.sqrt(np.round(1.0 / Pf.max(axis=1)))
            sym = (half[:, None] * Pf) / half[None, :]
            if np.allclose(sym, sym.T, rtol=0, atol=1e-12):
                ev = np.linalg.eigvalsh((sym + sym.T) / 2.0).astype(complex)
            else:
                ev = np.linalg.eigvals(Pf)
        else:
            ev = np.linalg.eigvals(Pf)
        order = np.lexsort((-ev.imag, -ev.real))
        return cls(tuple(complex(v) for v in ev[order]))


# spectrum route tolerances: see kemeny_spectrum; UNIT_TOL also bounds Spectrum
UNIT_TOL = 1e-9
GAP_TOL = 1e-6
IMAG_TOL = 1e-9


def kemeny_spectrum(P: ChainMatrix) -> float:
    """Kemeny's constant as sum of 1/(1 - rho) over non-unit eigenvalues.

    The unit eigenvalue is the one of maximal real part; it must sit within
    UNIT_TOL of 1 and be separated from the rest by GAP_TOL.  Complex pairs
    cancel in the sum; the leftover imaginary part must be below IMAG_TOL.
    """
    spec = Spectrum.of_chain(P)
    ev = np.array(spec.values, dtype=complex)
    i1 = int(np.argmax(ev.real))
    if abs(ev[i1] - 1.0) > UNIT_TOL:
        raise EngineError(f"unit eigenvalue not found (closest {ev[i1]:.12g})")
    rest = np.delete(ev, i1)
    if rest.size and np.min(np.abs(rest - 1.0)) < GAP_TOL:
        raise EngineError("unit eigenvalue is not simple within tolerance")
    total = np.sum(1.0 / (1.0 - rest))
    if abs(total.imag) > IMAG_TOL:
        raise EngineError(f"imaginary residual {total.imag:.3g} in eigenvalue sum")
    return float(total.real)


# ---------------------------------------------------------------------------
# characteristic-polynomial route

def kemeny_charpoly(P: ChainMatrix) -> Scalar:
    """Kemeny's constant K = p''(1) / (2 p'(1)) from the characteristic
    polynomial, taken at the deflated unit root.

    The rational similarity S = [1 | e2 ... eN] sends e1 to the all-ones
    vector 1, so S^{-1} P S has the first column e1 and the trailing block
    P22 = P[1:, 1:] - P[0, 1:]: p(x) = (x - 1) g(x) with g the polynomial of
    P22, and K = g'(1)/g(1) = tr((I - P22)^{-1}) by Jacobi's formula.  Both
    scalar modes build this block, without pi, from P's rows (e, F) with
    P = diag(e)^{-1} F: row i of I - P22 times c_i = lcm(e_0, e_i) is
    c_i (row i of I) - ((c_i/e_i) F[i, 1:] - (c_i/e_0) F[0, 1:]), integral
    in exact mode (float: e = c = 1).  Call it M; then K = tr(M^{-1}
    diag(c)), read by one ``_trace_scaled`` as t / s, one Fraction in exact
    mode.  There ``ratmath.trace_scaled`` takes it from det(M + eps
    diag(c)) = s + t eps over the dual integers, by Jacobi's formula again,
    so no entry of M^{-1} is built; in float mode it is the trace of one
    inverse, by ``kemeny_charpoly_stack`` on the one walk.  Working
    at the root avoids the cancellation a probe of the determinant suffers
    there and keeps the route independent of the eigensolver and of the
    mfpt route's solve kernel and fundamental matrix.

    The deflation needs P 1 = 1, so only transition kinds are accepted; a
    unit root that is not simple makes I - P22 singular.
    """
    if P.kind not in TRANSITION_KINDS:
        raise EngineError(f"charpoly route needs a transition matrix, not {P.kind!r}")
    if P.order == 1:
        return Fraction(0) if P.exact else 0.0
    if not P.exact:
        return float(kemeny_charpoly_stack(P.data))
    s, t = _trace_scaled(*_deflated(*P.rows), _SINGULAR)
    return Fraction(t, s)


_SINGULAR = "unit root is not simple: deflated system singular"


def _deflated(e, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M, c): the block c_i (row i of I - P22) of ``kemeny_charpoly`` for
    P = diag(e)^{-1} F, over F's leading axes (float: e = 1, a stack of
    walks)."""
    N = F.shape[-1]
    e = np.broadcast_to(e, N)
    c = np.lcm(e[0], e[1:])
    M = np.eye(N - 1, dtype=F.dtype) * c - (
        (c // e[1:])[:, None] * F[..., 1:, 1:] - (c // e[0])[:, None] * F[..., :1, 1:])
    return M, c


def kemeny_charpoly_stack(P: np.ndarray) -> np.ndarray:
    """The float charpoly route over a stack of float walks P (..., N, N),
    N > 1: K of each, as an array over the leading axes, from one stacked
    solve.  ``kemeny_charpoly`` hands it a float walk with no leading axis,
    and LAPACK solves each matrix of a stack alone, so a walk's value does
    not depend on the stack it is in.  A walk whose unit root is not simple
    raises EngineError."""
    s, t = _trace_scaled(*_deflated(1, P), _SINGULAR)
    k = t / s
    if not np.isfinite(k).all():
        raise EngineError("unit root is not simple: deflated trace diverged")
    return k


# ---------------------------------------------------------------------------
# resistance route (vertex walk only)

@dataclass(frozen=True)
class ResistanceData:
    """Effective resistances of a connected graph.

    lpinv is the Laplacian pseudoinverse, resistance the pairwise matrix
    r(i, j) = lpinv[i,i] + lpinv[j,j] - 2 lpinv[i,j].
    """

    lpinv: np.ndarray
    resistance: np.ndarray
    exact: bool


def _grounded_inverse(g: Graph, v: int, exact: bool) -> tuple[Scalar, np.ndarray, np.ndarray]:
    """(s, Y, d): H = Y / s is the inverse of the grounded Laplacian L_v (L
    without row and column v) from one ``_solve_scaled``, padded with zeros
    at v, and d is the degree vector in Y's mode.

    L_v is sparse and integral, and |s| = det L_v is the number of spanning
    trees of g (Kirchhoff's matrix-tree theorem).  H is a symmetric
    generalized inverse of L, and e_i - e_j lies in L's range, so
    r(i, j) = h_ii + h_jj - 2 h_ij.
    """
    if not g.is_connected():
        raise EngineError("effective resistance needs a connected graph")
    L = degree_matrix(g, exact).data - adjacency_matrix(g, exact).data
    rest = np.ix_(*[np.delete(np.arange(g.n), v)] * 2)
    s, X = _solve_scaled(L[rest], np.eye(g.n - 1, dtype=L.dtype), "grounded Laplacian is singular")
    Y = np.zeros_like(L)
    Y[rest] = X
    return s, Y, np.array(g.degrees, dtype=Y.dtype)


def resistance(g: Graph, exact: bool = True) -> ResistanceData:
    """Effective resistance data from H grounded at vertex 0 (see
    ``_grounded_inverse``): r(i, j) = h_ii + h_jj - 2 h_ij, and the
    pseudoinverse (I - J/n) H (I - J/n), H with centred rows and columns."""
    s, Y, _ = _grounded_inverse(g, 0, exact)
    H = Y * _ratio(1, s, exact)
    diag = np.diag(H)
    R = diag[:, None] + diag[None, :] - 2 * H
    mean = H.mean(axis=0)  # and its row means, H being symmetric
    return ResistanceData(H - mean[:, None] - mean + mean.mean(), R, exact)


def _kemeny_and_moment(g: Graph, v: int, exact: bool) -> tuple[Scalar, Scalar]:
    """(K, mu) from one inverse H = Y / s grounded at v (see
    ``_grounded_inverse``); v is checked first: ``np.delete`` reads -1 as n - 1.

    The simple walk's K = d^T R d / (4m) is (2m sum_i d_i y_ii - d^T Y d) /
    (2m s) at any ground vertex, as sum_i d_i = 2m; when m = 0, d = 0 and 1
    stands in for 2m, so K = 0.  The moment mu(v) = sum_i d_i r(i, v) is
    sum_i d_i y_ii / s, as h_iv = 0.  Both are integer quotients in exact mode.
    """
    if not 0 <= v < g.n:
        raise EngineError(f"vertex {v} out of range")
    s, Y, d = _grounded_inverse(g, v, exact)
    two_m = 2 * g.m
    dy = d @ np.diag(Y)
    return _ratio(two_m * dy - d @ Y @ d, max(two_m, 1) * s, exact), _ratio(dy, s, exact)


def kemeny_resistance(g: Graph, exact: bool = True) -> Scalar:
    """Kemeny's constant of the simple walk, K = d^T R d / (4m), grounded at
    vertex 0 (see ``_kemeny_and_moment``).  Not at n - 1: L_{n-1} leads the
    mfpt route's matrix on the vertex walk, and the two routes would share
    its elimination."""
    return _kemeny_and_moment(g, 0, exact)[0]


def moment(g: Graph, v: int, exact: bool = True) -> Scalar:
    """Degree-weighted resistance moment sum_i deg(i) r(i, v), grounded at v
    itself (see ``_kemeny_and_moment``)."""
    return _kemeny_and_moment(g, v, exact)[1]


def kemeny_one_sum(g1: Graph, v1: int, g2: Graph, v2: int, exact: bool = True) -> Scalar:
    """Kemeny's constant of the 1-sum of two graphs glued at v1 ~ v2:

        K = (m1 (K1 + mu2(v2)) + m2 (K2 + mu1(v1))) / (m1 + m2)

    One solve per part, grounded at its glue vertex, gives its K and mu.
    A single-vertex part contributes zero, leaving the other's constant.
    """
    m1, m2 = g1.m, g2.m
    if m1 + m2 == 0:
        raise EngineError("1-sum of two single vertices has no edges")
    k1, mu1 = _kemeny_and_moment(g1, v1, exact)
    k2, mu2 = _kemeny_and_moment(g2, v2, exact)
    return (m1 * (k1 + mu2) + m2 * (k2 + mu1)) / (m1 + m2)


# ---------------------------------------------------------------------------
# the cross-validated report

_IDENTITY_NOTE = "k_edge = k_vertex + 2m - n"


@dataclass
class KemenyReport:
    """Per-walk Kemeny constants with per-route values and residuals."""

    n: int
    m: int
    k_vertex: Scalar
    k_edge: Scalar
    k_nb: Optional[Scalar]
    routes: dict[str, dict[str, Scalar]]
    residuals: dict[str, float]
    kappa_spread: dict[str, float]  # the mfpt route's first-step residual
    modes: dict[str, str]
    identity_residual: float
    identity_exact: bool
    nb_omitted: Optional[str]
    tolerance: float
    failed: bool = field(default=False)

    def to_json_dict(self) -> dict:
        def render(x):
            if isinstance(x, Fraction):
                return ratmath.format_scalar(x)
            if x is None:
                return None
            return float(f"{float(x):.12g}")

        return {
            "n": self.n,
            "m": self.m,
            "modes": self.modes,
            "kemeny": {
                "vertex": render(self.k_vertex),
                "edge": render(self.k_edge),
                "non-backtracking": render(self.k_nb),
            },
            "routes": {
                walk: {route: render(v) for route, v in vals.items()}
                for walk, vals in self.routes.items()
            },
            "residuals": {k: render(v) for k, v in self.residuals.items()},
            "kappa_spread": {k: render(v) for k, v in self.kappa_spread.items()},
            "identity": _IDENTITY_NOTE,
            "identity_residual": render(self.identity_residual),
            "identity_exact": self.identity_exact,
            "nb_omitted": self.nb_omitted,
            "tolerance": self.tolerance,
            "failed": self.failed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _run_routes(P: ChainMatrix, g: Graph | None = None) -> tuple[dict[str, Scalar], float]:
    k_m, spread = kemeny_mfpt(P)
    vals = {"mfpt": k_m, "spectrum": kemeny_spectrum(P), "charpoly": kemeny_charpoly(P)}
    if g is not None:
        vals["resistance"] = kemeny_resistance(g, exact=P.exact)
    return vals, spread


def _max_pairwise(vals: dict[str, Scalar]) -> float:
    xs = [float(v) for v in vals.values()]
    return max(abs(a - b) for a in xs for b in xs)


def agree(a: Scalar, b: Scalar, tol: float) -> bool:
    """Two Fractions agree when equal, other pairs when |a - b| <= tol *
    max(1, K/256)^2, K = min(|a|, |b|): float route gaps grow like eps K^2
    (measured up to 12 eps K^2), 256 is where 64 eps K^2 reaches 1e-9, and
    neither value can loosen its own bound."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    scale = max(1.0, float(min(abs(a), abs(b))) / 256)
    return abs(a - b) <= tol * scale * scale


# ---------------------------------------------------------------------------
# work in a forked child

def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one (``taskset -c 0`` leaves one), else all of the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_count() -> Optional[int]:
    """This process's threads by the kernel's count, Linux's
    ``/proc/self/task``, native threads (a BLAS pool's) included; None
    where the count cannot be read."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


@cache
def _openblas_threads() -> Optional[Callable[[], int]]:
    """The thread-count query of the OpenBLAS that numpy loaded, looked up
    once; None where no known symbol is found (another BLAS, or another
    layout than the wheel's ``numpy.libs``)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn
    return None


def _single_threaded() -> bool:
    """Whether this process runs one thread by the kernel's count and, where
    its OpenBLAS answers, by that library's setting too; False where the
    kernel's count cannot be read.  OpenBLAS stops its pool at a fork and
    restarts it at its next threaded call, so a process that has forked
    reads one kernel thread while its BLAS is still set to more."""
    blas = _openblas_threads()
    return _thread_count() == 1 and (blas is None or blas() == 1)


def _child_main(items: Callable[[], Iterable], error: type, read_fd: int, write_fd: int) -> None:
    """The forked child's whole life: send ("item", x) for each x of
    items(), then ("end", None) or ("raised", the exception it raised),
    each pickled whole before it is written, down write_fd, then leave by
    ``os._exit``, so it never unwinds into the caller's stack and never
    flushes the stdio buffers it inherited.  An exception that does not
    survive pickling is sent as an ``error`` carrying its repr.  SIGINT
    is ignored: an interrupt is the caller's to answer, by killing this
    process."""
    status = 1
    try:
        os.close(read_fd)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        with os.fdopen(write_fd, "wb") as fh:
            try:
                for item in items():
                    fh.write(pickle.dumps(("item", item)))
                    fh.flush()
                msg = pickle.dumps(("end", None))
            except Exception as exc:
                try:
                    msg = pickle.dumps(("raised", exc))
                    pickle.loads(msg)
                except Exception:
                    msg = pickle.dumps(("raised", error(f"child process raised {exc!r}")))
            fh.write(msg)
        status = 0
    finally:
        os._exit(status)


class _ForkedStream:
    """The items of items() produced in a child forked now, a snapshot of
    the caller at this moment (monkeypatched names included), while the
    caller goes on.

    Iterating yields each item as soon as the child has sent it, and
    reaps the child after its last one.  An exception in the child is
    raised here with the same type and message, or as ``error`` with its
    repr if it does not survive pickling; a child that dies before its end
    message (killed, out of memory) raises ``error`` with its exit status.
    ``close()`` kills and reaps a child that has not been reaped, so no
    process outlives the caller's ``finally``.
    """

    def __init__(self, items: Callable[[], Iterable], error: type = EngineError):
        read_fd, write_fd = os.pipe()
        try:
            self.pid: Optional[int] = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            _child_main(items, error, read_fd, write_fd)
        os.close(write_fd)
        # the child holds the only write end, so a read ends at its exit
        self._reader = os.fdopen(read_fd, "rb")
        self._error = error

    def _reap(self) -> int:
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)

    def __iter__(self) -> Iterator:
        while True:
            try:
                kind, value = pickle.load(self._reader)
            except (EOFError, pickle.UnpicklingError):
                raise self._error(f"child process exited with status {self._reap()} "
                                  "before finishing") from None
            if kind != "item":
                self._reap()
                if kind == "raised":
                    raise value
                return
            yield value

    def close(self) -> None:
        self._reader.close()
        if self.pid is not None:
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            self.pid = None


def _fork(items: Callable[[], Iterable], error: type = EngineError) -> Optional[_ForkedStream]:
    """A ``_ForkedStream`` of items() if work may run in a forked child
    beside the caller: POSIX fork, the kernel's thread count readable
    (Linux; elsewhere, macOS among them, everything stays in one process),
    a second CPU to run the child on, and pipe(2) and fork(2) succeeding
    (fork fails with EAGAIN at the process limit, or ENOMEM).  Otherwise
    None, and the caller runs the same work in this process."""
    if not (hasattr(os, "fork") and _thread_count() is not None and _cpu_count() > 1):
        return None
    try:
        return _ForkedStream(items, error)
    except OSError:
        return None


def kemeny_triple(
    g: Graph,
    mode: str = "auto",
    tol: float = DEFAULT_TOL,
) -> KemenyReport:
    """Compute and cross-validate the three Kemeny constants of a graph.

    Parameters
    ----------
    g : Graph
        Connected graph on at least two vertices.
    mode : {'auto', 'exact', 'float'}
        Scalar mode; 'auto' uses exact rationals for walks with at most
        ``EXACT_STATE_CAP`` states and floats beyond.
    tol : float
        Cross-check tolerance: ``failed`` is set unless ``agree`` holds for
        every pair of route values within a walk, for K_e - (2m - n) against
        K_v and for each first-step residual against 0.  Must be finite and
        >= 0 (ValueError otherwise): NaN or infinity would pass every check.

    Returns
    -------
    KemenyReport

    Notes
    -----
    When the non-backtracking walk has more than ``EXACT_STATE_CAP`` states
    and this process runs one thread by the kernel's count and by its
    OpenBLAS's setting (``_single_threaded``), ``_fork`` starts a one-item
    ``_ForkedStream`` before the walk loop (POSIX fork, a readable kernel
    thread count, which Linux gives, and more than one CPU in the affinity
    set).  The child builds that chain and runs ``_run_routes`` on it while
    this process computes the vertex and edge walks; where ``_fork`` starts
    no child, the walk loop computes it here in turn.  Another thread's
    locks would be inherited held, and a multithreaded BLAS already spreads
    the float work over the CPUs: two of its pools on the same CPUs ran
    CB(2,150,150)'s report 2-9x slower than one process did (OpenBLAS, 2
    threads, 2 cores).  The values, the checks and the report bytes are
    those of the in-process run.  An exception in the child is
    raised here, and the child is killed and reaped before this function
    returns or raises.
    """
    if mode not in ("auto", "exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    if not g.is_connected():
        raise EngineError("graph must be connected")
    if g.n < 2:
        raise EngineError("walks need at least two vertices")

    def use_exact(states: int) -> bool:
        return mode == "exact" or (mode == "auto" and states <= EXACT_STATE_CAP)

    walks = [("vertex", g.n, vertex_transition), ("edge", 2 * g.m, edge_transition)]
    nb_omitted = nb_walk_defect(g)
    if nb_omitted is None:
        walks.append(("non-backtracking", 2 * g.m, nb_transition))

    routes: dict[str, dict[str, Scalar]] = {}
    residuals: dict[str, float] = {}
    spreads: dict[str, float] = {}
    modes: dict[str, str] = {}
    child = None
    if nb_omitted is None and 2 * g.m > EXACT_STATE_CAP and _single_threaded():
        nb_exact = use_exact(2 * g.m)
        child = _fork(lambda: [_run_routes(nb_transition(g, exact=nb_exact))])
    try:
        for walk, states, build in walks:
            exact = use_exact(states)
            if walk == "non-backtracking" and child is not None:
                [(routes[walk], spreads[walk])] = child
            else:
                P = build(g, exact=exact)
                routes[walk], spreads[walk] = _run_routes(P, g if walk == "vertex" else None)
            residuals[walk] = _max_pairwise(routes[walk])
            modes[walk] = "exact" if exact else "float"
    finally:
        if child is not None:
            child.close()
    k_vertex = routes["vertex"]["mfpt"]
    k_edge = routes["edge"]["mfpt"]
    k_nb = routes["non-backtracking"]["mfpt"] if nb_omitted is None else None

    # a Fraction minus a float is computed in float
    identity_residual = float(abs(k_edge - k_vertex - (2 * g.m - g.n)))

    pairs = [pair for vals in routes.values() for pair in combinations(vals.values(), 2)]
    pairs.append((k_edge - (2 * g.m - g.n), k_vertex))
    pairs += [(spread, 0) for spread in spreads.values()]
    failed = not all(agree(a, b, tol) for a, b in pairs)
    return KemenyReport(
        n=g.n,
        m=g.m,
        k_vertex=k_vertex,
        k_edge=k_edge,
        k_nb=k_nb,
        routes=routes,
        residuals=residuals,
        kappa_spread=spreads,
        modes=modes,
        identity_residual=identity_residual,
        identity_exact=modes["vertex"] == modes["edge"] == "exact",
        nb_omitted=nb_omitted,
        tolerance=tol,
        failed=failed,
    )
