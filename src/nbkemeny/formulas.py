"""Closed-form Kemeny values for structured graph families.

Covers four families where the three walk variants admit explicit
expressions: d-regular graphs (edge value from the adjacency spectrum,
non-backtracking value as an affine function of it), (c,d)-biregular
bipartite graphs, 3-regular necklace chains, and cycle barbells (two
cycles joined by a path), together with the comparison bounds each
family satisfies and the extremal barbells on a fixed vertex count.

Spectrum-dependent forms are evaluated in floats; everything that is a
rational function of integer parameters is evaluated over ``Fraction``
and stays exact.  The module imports only ``graphs`` and ``ratmath``:
these forms are the outside reference the engine's routes are checked
against, so none of them runs an engine route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from . import ratmath
from .graphs import BarbellParams, Graph, profile

Scalar = Union[Fraction, float]

# slack for float spectra when classifying eigenvalue coincidences
_SPEC_TOL = 1e-8


class FormulaError(ValueError):
    """Raised when a closed form is evaluated outside its family."""


# ---------------------------------------------------------------------------
# profiles: what a formula needs to know about its graph


@dataclass(frozen=True)
class RegularProfile:
    """A connected d-regular graph reduced to its formula inputs.

    Parameters
    ----------
    n : int
        Number of vertices.
    d : int
        Common degree, at least 3.
    adjacency_spectrum : tuple of float
        Adjacency eigenvalues in descending order, so the first entry
        equals d.
    """

    n: int
    d: int
    adjacency_spectrum: tuple

    def __post_init__(self):
        if self.d < 3:
            raise FormulaError("regular closed forms require degree >= 3")
        if len(self.adjacency_spectrum) != self.n:
            raise FormulaError("spectrum size must equal the vertex count")
        if abs(self.adjacency_spectrum[0] - self.d) > _SPEC_TOL:
            raise FormulaError("leading adjacency eigenvalue must equal the degree")

    @property
    def m(self) -> int:
        return self.n * self.d // 2


@dataclass(frozen=True)
class BiregularProfile:
    """A connected (c,d)-biregular bipartite graph reduced to formula inputs.

    The two sides have uniform degrees c <= d; r counts the degree-c
    vertices and s the degree-d vertices, so r >= s and c*r = d*s = m.
    """

    c: int
    d: int
    r: int
    s: int
    n: int
    m: int
    adjacency_spectrum: tuple

    def __post_init__(self):
        if self.c > self.d or self.r < self.s:
            raise FormulaError("biregular profile wants c <= d and r >= s")
        if self.c * self.r != self.m or self.d * self.s != self.m:
            raise FormulaError("degree split inconsistent with edge count")
        if self.r + self.s != self.n:
            raise FormulaError("side sizes must add up to the vertex count")
        spec = self.adjacency_spectrum
        if len(spec) != self.n:
            raise FormulaError("spectrum size must equal the vertex count")
        # bipartite spectra are symmetric about zero with >= r - s zeros
        for lo, hi in zip(spec, reversed(spec)):
            if abs(lo + hi) > 1e-6:
                raise FormulaError("adjacency spectrum is not symmetric about zero")
        zeros = sum(1 for lam in spec if abs(lam) < 1e-6)
        if zeros < self.r - self.s:
            raise FormulaError("null space smaller than the side-size gap")


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of one inequality check.

    ``margin`` is lhs - rhs, so ``satisfied`` means margin >= 0 (or > 0
    when ``strict``).  ``known_exception`` marks graphs on a bound's
    explicit exception list, where a violation is the expected outcome.
    """

    name: str
    lhs: Scalar
    rhs: Scalar
    satisfied: bool
    margin: Scalar
    strict: bool = False
    known_exception: bool = False


def _check(name: str, lhs: Scalar, rhs: Scalar, strict: bool = False,
           known_exception: bool = False) -> BoundCheck:
    margin = lhs - rhs
    ok = margin > 0 if strict else margin >= 0
    return BoundCheck(name, lhs, rhs, ok, margin, strict, known_exception)


def _adjacency_spectrum(g: Graph) -> tuple:
    A = np.zeros((g.n, g.n))
    for u, v in g.edges:
        A[u, v] = A[v, u] = 1.0
    vals = np.linalg.eigvalsh(A)[::-1]
    return tuple(float(v) for v in vals)


def regular_profile(g: Graph) -> RegularProfile:
    """Build the formula inputs for a connected regular graph of degree >= 3."""
    p = profile(g)
    if not p.connected:
        raise FormulaError("regular closed forms require a connected graph")
    if p.regular_degree is None:
        raise FormulaError("graph is not regular")
    return RegularProfile(g.n, p.regular_degree, _adjacency_spectrum(g))


def biregular_profile(g: Graph) -> BiregularProfile:
    """Build the formula inputs for a connected biregular bipartite graph."""
    p = profile(g)
    if p.biregular is None:
        raise FormulaError("graph is not connected biregular bipartite")
    split = p.biregular
    return BiregularProfile(split.c, split.d, split.r, split.s,
                            g.n, g.m, _adjacency_spectrum(g))


# ---------------------------------------------------------------------------
# regular graphs


def regular_edge_kemeny(p: RegularProfile) -> float:
    """Edge-space Kemeny's constant of a d-regular graph.

    K_e = n(d-1) + sum over non-leading adjacency eigenvalues of
    d/(d - lambda_i).
    """
    d = p.d
    tail = p.adjacency_spectrum[1:]
    if tail and d - tail[0] <= _SPEC_TOL:
        raise FormulaError("repeated leading eigenvalue: graph is disconnected")
    return p.n * (d - 1) + sum(d / (d - lam) for lam in tail)


def regular_nb_kemeny(p: RegularProfile, k_e: Scalar) -> Scalar:
    """Non-backtracking Kemeny's constant from the edge-space value.

    K_nb = (d-2) K_e / d + 2n + 1/(d-2) - n/d.  Exact when k_e is a
    Fraction, float otherwise.
    """
    d, n = p.d, p.n
    return (d - 2) * k_e / d + 2 * n + Fraction(1, d - 2) - Fraction(n, d)


def regular_nb_spectrum(p: RegularProfile) -> np.ndarray:
    """Eigenvalues of the non-backtracking transition matrix of a d-regular
    graph, from its adjacency spectrum.

    Each adjacency eigenvalue lambda contributes the conjugate pair
    (lambda +- sqrt(lambda^2 - 4(d-1))) / (2(d-1)); the remaining
    2(m - n) eigenvalues are +-1/(d-1).  Returned sorted by descending
    real part, then descending imaginary part.
    """
    d = p.d
    extra = p.m - p.n
    vals = [1.0 / (d - 1)] * extra + [-1.0 / (d - 1)] * extra
    for lam in p.adjacency_spectrum:
        root = np.sqrt(complex(lam * lam - 4 * (d - 1)))
        vals.append((lam + root) / (2 * (d - 1)))
        vals.append((lam - root) / (2 * (d - 1)))
    arr = np.asarray(vals, dtype=complex)
    order = np.lexsort((-arr.imag, -arr.real))
    return arr[order]


def _is_regular_exception(p: RegularProfile) -> bool:
    # K4 and K5 are the complete graphs on 4 and 5 vertices; K_{3,3} is the
    # unique bipartite cubic graph on 6 vertices, recognized by its
    # spectrum reaching -d
    if p.d == p.n - 1 and p.n in (4, 5):
        return True
    if p.n == 6 and p.d == 3 and abs(p.adjacency_spectrum[-1] + 3) < 1e-6:
        return True
    return False


def regular_bounds(p: RegularProfile, k_e: Scalar, k_nb: Scalar) -> list:
    """Comparison bounds for a d-regular graph.

    Checks that the edge value strictly exceeds the non-backtracking one
    (false exactly on the three known small exceptions), that their ratio
    lies in the open window (1 - 2/d, 1), and that K_e >= nd - 2.  When
    the spectrum satisfies the Ramanujan condition
    lambda_2, |lambda_n| <= 2 sqrt(d-1), the matching upper bound on K_e
    is checked as well.
    """
    d, n = p.d, p.n
    exc = _is_regular_exception(p)
    ratio = k_nb / k_e
    checks = [
        _check("edge-exceeds-nb", k_e, k_nb, strict=True, known_exception=exc),
        _check("nb-edge-ratio-lower", ratio, 1 - Fraction(2, d),
               strict=True, known_exception=exc),
        _check("nb-edge-ratio-upper", 1, ratio, strict=True, known_exception=exc),
        _check("edge-at-least-nd-minus-2", k_e, n * d - 2),
    ]
    bound = 2.0 * math.sqrt(d - 1)
    spec = p.adjacency_spectrum
    if spec[1] <= bound + _SPEC_TOL and abs(spec[-1]) <= bound + _SPEC_TOL:
        ram = n * (d - 1 + d / (d - bound))
        checks.append(_check("ramanujan-edge-upper", ram, k_e))
    return checks


def necklace_kemeny(n: int):
    """The three Kemeny values of the 3-regular necklace chain on n vertices.

    Defined for n = 4k + 2 with k >= 2 beads.  Returns exact fractions
    (k_v, k_e, k_nb).
    """
    if n % 4 != 2 or n < 10:
        raise FormulaError("necklace graphs need n = 4k + 2 with k >= 2")
    k_v = Fraction(4 * n**3 + 3 * n**2 - 122 * n + 216, 16 * n)
    k_e = Fraction(4 * n**3 + 35 * n**2 - 122 * n + 216, 16 * n)
    k_nb = Fraction(4 * n**3 + 115 * n**2 - 74 * n + 216, 48 * n)
    return k_v, k_e, k_nb


# ---------------------------------------------------------------------------
# biregular graphs


def biregular_edge_kemeny(p: BiregularProfile) -> float:
    """Edge-space Kemeny's constant of a (c,d)-biregular graph.

    K_e = 2m - n + sum over non-leading adjacency eigenvalues of
    sqrt(cd)/(sqrt(cd) - lambda_i).
    """
    root = math.sqrt(p.c * p.d)
    tail = p.adjacency_spectrum[1:]
    if tail and root - tail[0] <= _SPEC_TOL:
        raise FormulaError("repeated leading eigenvalue: graph is disconnected")
    return 2 * p.m - p.n + sum(root / (root - lam) for lam in tail)


def biregular_nb_kemeny(p: BiregularProfile, k_e: Scalar) -> Scalar:
    """Non-backtracking Kemeny's constant of a (c,d)-biregular graph from
    its edge-space value.

    The closed form keeps the convention c <= d, r >= s; the weight
    (d-1)/d on the side-imbalance term uses the larger degree.  Exact
    when k_e is a Fraction.
    """
    c, d, r, s, n, m = p.c, p.d, p.r, p.s, p.n, p.m
    if c < 2:
        raise FormulaError(f"a degree-{c} side: the non-backtracking walk needs min degree >= 2")
    if (c - 1) * (d - 1) == 1:
        raise FormulaError("both degrees are 2: the walk never branches")
    return (
        Fraction(2 * (m - n + 1) * (c - 1) * (d - 1), (c - 1) * (d - 1) - 1)
        + Fraction(2 * (r - s) * (d - 1), d)
        + Fraction(1, 2)
        + 2 * (s - 1)
        + Fraction(c * d - c - d, c * d)
        * (k_e - 2 * m + n - Fraction(1, 2) - (r - s))
    )


def _is_complete_bipartite(p: BiregularProfile) -> bool:
    # K_{c,d} is the biregular graph whose degree-c side has d vertices
    return p.r == p.d and p.s == p.c


def biregular_bounds(p: BiregularProfile, k_e: Scalar, k_nb: Scalar) -> list:
    """Comparison bounds for a (c,d)-biregular graph.

    Checks the bipartite lower bound K_e >= 2m - 3/2 (tight exactly on
    complete bipartite graphs), the difference sign (false exactly on
    K_{2,3}, K_{2,4}, K_{2,5}, with equality on K_{3,3}), and the ratio
    window [1 - (c+d)/cd, 1).
    """
    exc = (_is_complete_bipartite(p)
           and (p.c, p.d) in ((2, 3), (2, 4), (2, 5), (3, 3)))
    ratio = k_nb / k_e
    cd = p.c * p.d
    return [
        _check("edge-at-least-2m-minus-3/2", k_e, 2 * p.m - Fraction(3, 2)),
        _check("edge-exceeds-nb", k_e, k_nb, strict=True, known_exception=exc),
        _check("nb-edge-ratio-lower", ratio, 1 - Fraction(p.c + p.d, cd),
               known_exception=exc),
        _check("nb-edge-ratio-upper", 1, ratio, strict=True, known_exception=exc),
    ]


# ---------------------------------------------------------------------------
# cycle barbells


def barbell_kemeny(p: BarbellParams):
    """The three Kemeny values of the cycle barbell CB(k, a, b), exactly.

    Returns (k_v, k_e, k_nb) as fractions.  The vertex value comes from
    the one-sum decomposition into an a-cycle, a path on k vertices, and
    a b-cycle; the edge value adds 2m - n = a + b + k.  The
    non-backtracking value is a rational function of (k, a, b) for
    k >= 2; at k = 1 the cycles share a degree-4 vertex and it is
    (4a^2 + 9ab + 4b^2 - a - b) / (2(a + b)), from the polynomial of
    barbell_nb_charpoly.
    """
    a, b, k = p.a, p.b, p.k
    m = a + b + k - 1
    k_v = (
        Fraction((a + 1) * (a - 1), 6) * (a + 2 * (b + k - 1))
        + Fraction((b + 1) * (b - 1), 6) * (b + 2 * (a + k - 1))
        + (a + b) * (k - 1) ** 2
        + Fraction((k - 1) * (2 * k * k - 4 * k + 3), 6)
        + 2 * a * b * (k - 1)
    ) / m
    k_e = k_v + (a + b + k)
    if k == 1:
        k_nb = Fraction(4 * a * a + 9 * a * b + 4 * b * b - a - b, 2 * (a + b))
    else:
        k_nb = Fraction(
            2 * m * m + 3 * (a + b) ** 2 + 2 * a * b + 4 * (a + b) * (k - 1) - m,
            2 * m,
        )
    return k_v, k_e, k_nb


def barbell_nb_charpoly(p: BarbellParams) -> list:
    """Characteristic polynomial of the non-backtracking transition matrix
    of CB(k, a, b), as ascending integer coefficients.

    For k >= 2 every vertex where a cycle meets the path has degree 3, so
    p(t) = (2 t^a - 1)(2 t^b - 1) [ (2 t^a - 1)(2 t^b - 1) t^(2(k-1)) - 1 ].
    At k = 1 the four directed cycles meet at one degree-4 vertex and
    p(t) = det(diag(t^a, t^a, t^b, t^b) - (J - R)/3), with R swapping each
    cycle with its reverse: the same product with branching 3 in place
    of 2 and constant 4 in place of 1.
    """
    c = 3 if p.k == 1 else 2
    fa = [-1] + [0] * (p.a - 1) + [c]
    fb = [-1] + [0] * (p.b - 1) + [c]
    outer = ratmath.poly_mul(fa, fb)
    inner = [0] * (2 * (p.k - 1)) + list(outer)
    inner[0] -= (c - 1) ** 2
    return ratmath.poly_mul(outer, inner)


def barbell_edge_max(n: int):
    """The edge-maximal cycle barbell on n vertices and its value.

    The maximum sits at CB(n-4, 3, 3): shortest possible cycles, all
    remaining vertices on the path.  Returns (params, k_e) exactly.
    """
    if n < 6:
        raise FormulaError("CB(n-4, 3, 3) needs n >= 6 for a k >= 2 path")
    value = Fraction(2 * n**3 + 12 * n**2 - 51 * n + 101, 6 * (n + 1))
    return BarbellParams(n - 4, 3, 3), value


def barbell_nb_max(n: int):
    """The non-backtracking-maximal cycle barbell on n vertices and its value.

    The maximum sits at CB(2, ceil(n/2), floor(n/2)): shortest possible
    path, cycles as large and as balanced as possible.  Returns
    (params, k_nb) exactly.
    """
    if n < 6:
        raise FormulaError("CB(2, ceil(n/2), floor(n/2)) needs n >= 6")
    bump = 2 if n % 2 == 0 else 1
    value = Fraction(11 * n**2 + 14 * n + bump, 4 * (n + 1))
    return BarbellParams(2, (n + 1) // 2, n // 2), value


def barbell_argmax(n: int, objective: str):
    """Exhaustively maximize one Kemeny variant over cycle barbells on n
    vertices.

    Scans every CB(k, a, b) with a + b + k - 2 = n, a >= b >= 3, k >= 2,
    evaluating the exact closed forms.  Returns (maximizers, value) where
    maximizers is a tuple of BarbellParams; every barbell whose value
    equals the maximum exactly is reported.
    """
    if objective not in ("edge", "nb"):
        raise FormulaError(f"unknown objective {objective!r}: use 'edge' or 'nb'")
    results = []
    for k in range(2, n - 3):
        rest = n + 2 - k
        for b in range(3, rest // 2 + 1):
            params = BarbellParams(k, rest - b, b)
            _, k_e, k_nb = barbell_kemeny(params)
            results.append((params, k_e if objective == "edge" else k_nb))
    if not results:
        raise FormulaError(f"no cycle barbell with k >= 2 exists on {n} vertices")
    top = max(value for _, value in results)
    winners = tuple(p for p, value in results if value == top)
    return winners, top
