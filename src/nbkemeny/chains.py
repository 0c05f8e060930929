"""Transition and incidence matrices for the three random walks.

The vertex walk lives on the n vertices; the edge-space and non-backtracking
walks live on the 2m oriented edges (arcs).  ``_arc_table`` owns the arc
layout: arcs sorted by (tail, head), which fixes every 2m-dimensional matrix
in the package and ``OrientedEdgeIndex``.

Every builder makes an integer 0/1 pattern from the edge or arc arrays, by
broadcasting or indexing, and casts it to the mode of its ``exact`` flag: an
object-dtype array of ints and Fractions, or a float64 array.  The array's
dtype is the mode.  A walk is its step pattern over the row sums (``_walk``).
The patterns are written over a stack of graphs of one (n, m), so
``walk_stack`` builds the census's float walks of many graphs at once, and a
one-graph builder reads the stack of one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

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
        tail, head = _arcs(g)
        key = tail * g.n + head  # ascending, since the arcs are sorted
        rev = np.searchsorted(key, head * g.n + tail)
        # the arcs leaving vertex v are those from start[v] to start[v + 1]
        start = np.searchsorted(tail, np.arange(g.n + 1)).tolist()
        leaving = [tuple(range(lo, hi)) for lo, hi in zip(start, start[1:])]
        return cls(tuple(zip(tail.tolist(), head.tolist())), tuple(rev.tolist()),
                   tuple(leaving[v] for v in head.tolist()))

    def __len__(self) -> int:
        return len(self.arcs)

    def position(self, u: int, v: int) -> int:
        i = bisect_left(self.arcs, (u, v))
        if i == len(self.arcs) or self.arcs[i] != (u, v):
            raise KeyError(f"arc {(u, v)} not in graph")
        return i


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
            _check_stochastic(self.kind, *self.rows, self.exact)

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


def _check_stochastic(kind: str, e, F: np.ndarray, exact: bool) -> None:
    """ChainError unless F 1 = e on every row of F, over its leading axes:
    exactly in exact mode, within 1e-12 e in float mode (a NaN row fails)."""
    tol = 0 if exact else 1e-12
    bad = np.nonzero(~(abs(F.sum(axis=-1) - e) <= tol * e))[-1]
    if bad.size:
        raise ChainError(f"row {bad[0]} of {kind} matrix is not stochastic")


def integer_rows(M: np.ndarray) -> tuple[np.ndarray | int, np.ndarray]:
    """(e, F) with M = diag(e)^{-1} F: e the row denominators and F integral
    in exact mode, e = 1 and F = M in float mode."""
    if M.dtype != object:
        return 1, M
    e, F = ratmath.clear_row_denominators(M.tolist())
    return np.array(e, dtype=object), np.array(F, dtype=object)


def _edge_table(graphs: Sequence[Graph]) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) int arrays of shape (G, m), row k the edges of graphs[k]; the
    graphs share one (n, m)."""
    E = np.array([g.edges for g in graphs], dtype=np.intp).reshape(len(graphs), -1, 2)
    return E[..., 0], E[..., 1]


def _arc_table(graphs: Sequence[Graph]) -> tuple[np.ndarray, np.ndarray]:
    """(tail, head) int arrays of shape (G, 2m), row k the arcs of
    graphs[k] sorted by (tail, head); the graphs share one (n, m).  Sorting
    the keys tail * n + head keeps the table at O(m) a graph, where the
    adjacency's nonzeros would give the same order at O(n^2)."""
    u, v = _edge_table(graphs)
    n = graphs[0].n
    key = np.sort(np.concatenate([u * n + v, v * n + u], axis=-1), axis=-1)
    return np.divmod(key, n)


def _arcs(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(tail, head) int arrays of the 2m arcs, sorted by (tail, head)."""
    tail, head = _arc_table([g])
    return tail[0], head[0]


def _scalars(M: np.ndarray, exact: bool) -> np.ndarray:
    """An integer pattern in the scalar mode: Python ints in an object
    array, or float64."""
    M = M.astype(np.intp)
    return M.astype(object) if exact else M.astype(float)


def _walk(kind: str, F: np.ndarray, exact: bool) -> ChainMatrix:
    """The walk diag(e)^{-1} F of a 0/1 step pattern F with row sums e: F / e
    in float mode; in exact mode one Fraction(1, e_i) per row, written on
    row i's nonzeros, and int zeros elsewhere."""
    e = F.sum(axis=1)
    if not exact:
        return ChainMatrix(kind, F / e[:, None])
    P = _scalars(F, exact)
    rows, cols = np.nonzero(F)
    P[rows, cols] = np.frompyfunc(Fraction, 2, 1)(1, e.astype(object))[rows]
    return ChainMatrix(kind, P)


def _refuse_isolated(g: Graph, walk: str) -> None:
    if 0 in g.degrees:
        raise ChainError(f"vertex {g.degrees.index(0)} is isolated; the {walk} walk is undefined")


def _adjacency(graphs: Sequence[Graph]) -> np.ndarray:
    """The adjacency matrices of graphs of one (n, m), stacked (G, n, n),
    written from the edge lists."""
    u, v = _edge_table(graphs)
    n = graphs[0].n
    A = np.zeros((len(graphs), n, n), dtype=np.intp)
    k = np.arange(len(graphs))[:, None]
    A[k, u, v] = A[k, v, u] = 1
    return A


def _steps(tail: np.ndarray, head: np.ndarray, non_backtracking: bool) -> np.ndarray:
    """Arc a -> arc b iff b starts where a ends, and for the
    non-backtracking walk b is not a's reversal, over the arc arrays'
    leading axes."""
    F = head[..., :, None] == tail[..., None, :]
    if non_backtracking:
        F &= tail[..., :, None] != head[..., None, :]
    return F


def _pattern(graphs: Sequence[Graph], kind: str) -> np.ndarray:
    """The 0/1 step patterns of one walk kind on graphs of one (n, m),
    stacked (G, N, N)."""
    if kind == "vertex":
        return _adjacency(graphs)
    return _steps(*_arc_table(graphs), kind == "non-backtracking")


def walk_stack(graphs: Sequence[Graph], kind: str) -> np.ndarray:
    """The float walks of one kind on graphs of one (n, m), stacked
    (G, N, N): the patterns over their row sums, checked row-stochastic as
    ``ChainMatrix`` checks one walk.  The caller vouches that each walk
    exists (no isolated vertex, and for the non-backtracking walk no
    ``nb_walk_defect``); a row with no step fails the check."""
    F = _pattern(graphs, kind)
    P = F / F.sum(axis=-1)[..., None]
    _check_stochastic(kind, 1, P, exact=False)
    return P


def adjacency_matrix(g: Graph, exact: bool = False) -> ChainMatrix:
    return ChainMatrix("adjacency", _scalars(_adjacency([g])[0], exact))


def degree_matrix(g: Graph, exact: bool = False) -> ChainMatrix:
    return ChainMatrix("degree", _scalars(np.diag(g.degrees), exact))


def vertex_transition(g: Graph, exact: bool = False) -> ChainMatrix:
    """Simple random walk matrix P = D^{-1} A."""
    _refuse_isolated(g, "vertex")
    return _walk("vertex", _pattern([g], "vertex")[0], exact)


def incidence_operators(g: Graph, exact: bool = False) -> tuple[ChainMatrix, ChainMatrix, ChainMatrix]:
    """Startpoint operator T (n x 2m), endpoint operator S (2m x n), and the
    arc-reversal involution tau (2m x 2m).

    T(u, a) = 1 iff arc a starts at u; S(a, w) = 1 iff arc a ends at w;
    tau maps each arc to its reversal.  These satisfy A = T S and C = S T.
    """
    tail, head = _arcs(g)
    vertices = np.arange(g.n)
    T = vertices[:, None] == tail[None, :]
    S = head[:, None] == vertices[None, :]
    tau = (tail[:, None] == head[None, :]) & (head[:, None] == tail[None, :])
    return (
        ChainMatrix("incidence-T", _scalars(T, exact)),
        ChainMatrix("incidence-S", _scalars(S, exact)),
        ChainMatrix("reversal", _scalars(tau, exact)),
    )


def edge_adjacency(g: Graph, exact: bool = False) -> ChainMatrix:
    """C = S T: arc a -> arc b allowed iff b starts where a ends."""
    return ChainMatrix("edge-adjacency", _scalars(_pattern([g], "edge")[0], exact))


def nb_adjacency(g: Graph, exact: bool = False) -> ChainMatrix:
    """B = S T - tau: edge adjacency with reversals forbidden."""
    return ChainMatrix("nb-adjacency", _scalars(_pattern([g], "non-backtracking")[0], exact))


def edge_degree_matrix(g: Graph, exact: bool = False) -> ChainMatrix:
    """Diagonal D_e with the degree of each arc's head."""
    _, head = _arcs(g)
    return ChainMatrix("edge-degree", _scalars(np.diag(np.array(g.degrees)[head]), exact))


def edge_transition(g: Graph, exact: bool = False) -> ChainMatrix:
    """Edge-space walk P_e = D_e^{-1} C: step to a uniform arc out of the
    current arc's head (reversal allowed)."""
    _refuse_isolated(g, "edge")
    return _walk("edge", _pattern([g], "edge")[0], exact)


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
    return _walk("non-backtracking", _pattern([g], "non-backtracking")[0], exact)


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
