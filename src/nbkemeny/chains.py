"""Transition and incidence matrices for the three random walks.

The vertex walk lives on the n vertices; the edge-space and non-backtracking
walks live on the 2m oriented edges (arcs).  Arcs are ordered
lexicographically by (tail, head), which fixes the layout of every
2m-dimensional matrix in the package.

All builders take an ``exact`` flag and write into an array of that mode:
an object-dtype array of ints and Fractions, or a float64 array, where the
integer entries convert on assignment.  The array's dtype is the mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import ratmath
from .graphs import Graph

TRANSITION_KINDS = ("vertex", "edge", "non-backtracking")


class ChainError(ValueError):
    """Raised when a walk matrix cannot be built for the given graph."""


@dataclass(frozen=True)
class OrientedEdgeIndex:
    """Lexicographic index of the 2m arcs (u, v) of an undirected graph.

    ``rev[i]`` is the position of the reversed arc, an involution with no
    fixed points.  ``succ[i]`` lists, ascending, the arcs leaving the head of
    arc i.
    """

    arcs: tuple[tuple[int, int], ...]
    rev: tuple[int, ...]
    succ: tuple[tuple[int, ...], ...]

    @classmethod
    def from_graph(cls, g: Graph) -> "OrientedEdgeIndex":
        arcs = sorted([(u, v) for u, v in g.edges] + [(v, u) for u, v in g.edges])
        pos = {a: i for i, a in enumerate(arcs)}
        rev = tuple(pos[(v, u)] for u, v in arcs)
        tails: dict[int, list[int]] = {}
        for b, (x, _) in enumerate(arcs):
            tails.setdefault(x, []).append(b)
        succ = tuple(tuple(tails[v]) for _, v in arcs)
        return cls(tuple(arcs), rev, succ)

    def __len__(self) -> int:
        return len(self.arcs)

    def position(self, u: int, v: int) -> int:
        lo, hi = 0, len(self.arcs)
        a = (u, v)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.arcs[mid] < a:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(self.arcs) or self.arcs[lo] != a:
            raise KeyError(f"arc {a} not in graph")
        return lo


@dataclass(frozen=True)
class ChainMatrix:
    """A named dense matrix over either exact or float scalars.

    data is float64 for float mode, object dtype (Fraction/int) for exact
    mode.  Transition kinds are validated row-stochastic, F 1 = e, on build.
    """

    kind: str
    data: np.ndarray

    def __post_init__(self):
        if self.kind in TRANSITION_KINDS:
            r, c = self.data.shape
            if r != c:
                raise ChainError(f"{self.kind} transition matrix must be square")
            e, F = self.rows
            tol = 0 if self.exact else 1e-12
            bad = np.flatnonzero(abs(F.sum(axis=1) - e) > tol * e)
            if bad.size:
                raise ChainError(f"row {bad[0]} of {self.kind} matrix is not stochastic")

    @cached_property
    def rows(self) -> tuple[np.ndarray | int, np.ndarray]:
        """``integer_rows`` of data, derived once."""
        return integer_rows(self.data)

    @property
    def exact(self) -> bool:
        return self.data.dtype == object

    @property
    def order(self) -> int:
        return self.data.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def as_float(self) -> np.ndarray:
        return self.data.astype(float, copy=False)


def integer_rows(M: np.ndarray) -> tuple[np.ndarray | int, np.ndarray]:
    """(e, F) with M = diag(e)^{-1} F: e the row denominators and F integral
    in exact mode, e = 1 and F = M in float mode."""
    if M.dtype != object:
        return 1, M
    e, F = ratmath.clear_row_denominators(M.tolist())
    return np.array(e, dtype=object), np.array(F, dtype=object)


def _zeros(rows: int, cols: int, exact: bool) -> np.ndarray:
    if exact:
        return np.full((rows, cols), 0, dtype=object)
    return np.zeros((rows, cols))


def _one(exact: bool) -> Fraction | float:
    """1 in the scalar mode, to divide into transition weights.  Writing
    Fractions into float64 arrays would call ``__float__`` per entry, several
    times slower; the census builds two float arc matrices per graph."""
    return Fraction(1) if exact else 1.0


def adjacency_matrix(g: Graph, exact: bool = False) -> ChainMatrix:
    A = _zeros(g.n, g.n, exact)
    for u, v in g.edges:
        A[u, v] = 1
        A[v, u] = 1
    return ChainMatrix("adjacency", A)


def degree_matrix(g: Graph, exact: bool = False) -> ChainMatrix:
    D = _zeros(g.n, g.n, exact)
    for v in range(g.n):
        D[v, v] = g.degrees[v]
    return ChainMatrix("degree", D)


def vertex_transition(g: Graph, exact: bool = False) -> ChainMatrix:
    """Simple random walk matrix P = D^{-1} A."""
    iso = [v for v in range(g.n) if g.degrees[v] == 0]
    if iso:
        raise ChainError(f"vertex {iso[0]} is isolated; the vertex walk is undefined")
    P = _zeros(g.n, g.n, exact)
    one = _one(exact)
    for u, v in g.edges:
        P[u, v] = one / g.degrees[u]
        P[v, u] = one / g.degrees[v]
    return ChainMatrix("vertex", P)


def incidence_operators(g: Graph, exact: bool = False) -> tuple[ChainMatrix, ChainMatrix, ChainMatrix]:
    """Startpoint operator T (n x 2m), endpoint operator S (2m x n), and the
    arc-reversal involution tau (2m x 2m).

    T(u, a) = 1 iff arc a starts at u; S(a, w) = 1 iff arc a ends at w;
    tau maps each arc to its reversal.  These satisfy A = T S and C = S T.
    """
    idx = OrientedEdgeIndex.from_graph(g)
    two_m = len(idx)
    T = _zeros(g.n, two_m, exact)
    S = _zeros(two_m, g.n, exact)
    tau = _zeros(two_m, two_m, exact)
    for a, (u, v) in enumerate(idx.arcs):
        T[u, a] = 1
        S[a, v] = 1
        tau[a, idx.rev[a]] = 1
    return (
        ChainMatrix("incidence-T", T),
        ChainMatrix("incidence-S", S),
        ChainMatrix("reversal", tau),
    )


def _arc_matrix(g: Graph, exact: bool, *, non_backtracking: bool, stochastic: bool) -> np.ndarray:
    """Arc-to-arc matrix over ``OrientedEdgeIndex.succ``: a -> b for every
    arc b leaving a's head, except rev[a] when non-backtracking.  Entries
    are 1, or 1/(number of such b) when stochastic."""
    idx = OrientedEdgeIndex.from_graph(g)
    two_m = len(idx)
    M = _zeros(two_m, two_m, exact)
    one = _one(exact)
    w = 1
    for a, nxt in enumerate(idx.succ):
        if non_backtracking:
            nxt = [b for b in nxt if b != idx.rev[a]]
        if stochastic:
            w = one / len(nxt)
        for b in nxt:
            M[a, b] = w
    return M


def edge_adjacency(g: Graph, exact: bool = False) -> ChainMatrix:
    """C = S T: arc a -> arc b allowed iff b starts where a ends."""
    return ChainMatrix("edge-adjacency", _arc_matrix(
        g, exact, non_backtracking=False, stochastic=False))


def nb_adjacency(g: Graph, exact: bool = False) -> ChainMatrix:
    """B = S T - tau: edge adjacency with reversals forbidden."""
    return ChainMatrix("nb-adjacency", _arc_matrix(
        g, exact, non_backtracking=True, stochastic=False))


def edge_degree_matrix(g: Graph, exact: bool = False) -> ChainMatrix:
    """Diagonal D_e with the degree of each arc's head."""
    idx = OrientedEdgeIndex.from_graph(g)
    two_m = len(idx)
    D = _zeros(two_m, two_m, exact)
    for a, (_, v) in enumerate(idx.arcs):
        D[a, a] = g.degrees[v]
    return ChainMatrix("edge-degree", D)


def edge_transition(g: Graph, exact: bool = False) -> ChainMatrix:
    """Edge-space walk P_e = D_e^{-1} C: step to a uniform arc out of the
    current arc's head (reversal allowed)."""
    iso = [v for v in range(g.n) if g.degrees[v] == 0]
    if iso:
        raise ChainError(f"vertex {iso[0]} is isolated; the edge walk is undefined")
    return ChainMatrix("edge", _arc_matrix(
        g, exact, non_backtracking=False, stochastic=True))


def nb_walk_defect(g: Graph) -> str | None:
    """Why the non-backtracking walk on g does not exist, or None if it does:
    the one statement of the rule, which the builder, ``kemeny_triple`` and
    the census ask.  The walk needs min degree >= 2 (else D_e - I is
    singular) and no cycle graph (where it never mixes orientations); on a
    connected graph the two make it irreducible (Kempton, "Non-backtracking
    random walks and a weighted Ihara's theorem", 2016)."""
    low = [v for v in range(g.n) if g.degrees[v] <= 1]
    if low:
        return (f"vertex {low[0]} has degree {g.degrees[low[0]]}; the non-backtracking "
                "walk needs min degree >= 2")
    # min degree 2 and max degree 2: every vertex has degree 2
    if max(g.degrees) == 2 and g.is_connected():
        return "graph is a cycle; the non-backtracking walk is reducible"
    return None


def nb_transition(g: Graph, exact: bool = False) -> ChainMatrix:
    """Non-backtracking walk P_nb = (D_e - I)^{-1} B; ChainError carries the
    reason ``nb_walk_defect`` gives when the walk does not exist."""
    defect = nb_walk_defect(g)
    if defect is not None:
        raise ChainError(defect)
    return ChainMatrix("non-backtracking", _arc_matrix(
        g, exact, non_backtracking=True, stochastic=True))


# every named matrix, in the order ``kemeny matrices --kind`` lists them
MATRIX_BUILDERS = {
    "adjacency": adjacency_matrix,
    "degree": degree_matrix,
    "vertex": vertex_transition,
    "edge": edge_transition,
    "non-backtracking": nb_transition,
    "edge-adjacency": edge_adjacency,
    "nb-adjacency": nb_adjacency,
    "edge-degree": edge_degree_matrix,
    "incidence-T": lambda g, exact: incidence_operators(g, exact)[0],
    "incidence-S": lambda g, exact: incidence_operators(g, exact)[1],
    "reversal": lambda g, exact: incidence_operators(g, exact)[2],
}


def build_matrix(g: Graph, kind: str, exact: bool = False) -> ChainMatrix:
    """Construct any named matrix for a graph (CLI entry point)."""
    if kind not in MATRIX_BUILDERS:
        raise ChainError(f"unknown matrix kind {kind!r}")
    return MATRIX_BUILDERS[kind](g, exact)
