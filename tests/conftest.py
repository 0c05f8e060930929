"""Shared fixtures: named graphs, seeded random generators, and an
independent per-target passage-time oracle for Kemeny values.

The oracle computes K = sum_j m(0, j) pi_j with one masked linear solve per
target state j and pi from an eigenvector of P^T, on chains built from raw
adjacency dictionaries, so it shares no route with the engine (which uses
one generalized inverse of I - P, eigenvalues, the deflated characteristic
polynomial, and resistances).
"""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest

from nbkemeny import Graph, from_edge_list

# acceptance criterion outcomes collected for the terminal summary
ACCEPTANCE_LINES: dict[str, str] = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(ACCEPTANCE_LINES[key])


# ---------------------------------------------------------------------------
# named graphs

PETERSEN_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                  (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                  (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]

CUBE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
              (0, 4), (1, 5), (2, 6), (3, 7)]

# (2,3)-biregular graph on 10 vertices: two 4-cycles, a degree-3 vertex
# joining them, and a second bridge vertex closing the outer cycle
BIREG23_EDGES = [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7),
              (1, 8), (5, 8), (3, 9), (7, 9)]


@pytest.fixture(scope="session")
def petersen() -> Graph:
    return from_edge_list(10, PETERSEN_EDGES)


@pytest.fixture(scope="session")
def cube3() -> Graph:
    return from_edge_list(8, CUBE_EDGES)


@pytest.fixture(scope="session")
def bireg23() -> Graph:
    return from_edge_list(10, BIREG23_EDGES)


# ---------------------------------------------------------------------------
# seeded random graphs


def random_connected(n: int, rng: random.Random, extra_edges: int = 0) -> Graph:
    """Random connected graph: a random spanning tree plus extra edges."""
    verts = list(range(n))
    rng.shuffle(verts)
    edges = set()
    for i in range(1, n):
        edges.add(tuple(sorted((verts[i], verts[rng.randrange(i)]))))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in edges]
    rng.shuffle(pool)
    for e in pool[:extra_edges]:
        edges.add(e)
    return from_edge_list(n, sorted(edges))


def to_networkx(g: Graph) -> nx.Graph:
    """The same graph in networkx, isolated vertices included."""
    h = nx.Graph(g.edges)
    h.add_nodes_from(range(g.n))
    return h


def random_min2(n: int, rng: random.Random) -> Graph:
    """Random connected graph with minimum degree >= 2, not a cycle."""
    while True:
        g = random_connected(n, rng, extra_edges=rng.randrange(2, n))
        if min(g.degrees) >= 2 and set(g.degrees) != {2}:
            return g


def random_cubic(n: int, rng: random.Random) -> Graph:
    """Random connected 3-regular graph by repeated pairing."""
    if n % 2 or n < 4:
        raise ValueError("cubic graphs need even n >= 4")
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or tuple(sorted((u, v))) in edges:
                ok = False
                break
            edges.add(tuple(sorted((u, v))))
        if not ok:
            continue
        g = from_edge_list(n, sorted(edges))
        if g.is_connected():
            return g


# ---------------------------------------------------------------------------
# independent oracle


def oracle_kemeny(P: np.ndarray) -> float:
    """Kemeny's constant from mean first-passage times: for each target j,
    solve (I - P) m = 1 with row j replaced by m_j = 0."""
    N = P.shape[0]
    evals, evecs = np.linalg.eig(P.T)
    k = int(np.argmin(np.abs(evals - 1.0)))
    pi = np.real(evecs[:, k])
    pi = pi / pi.sum()
    M = np.zeros((N, N))
    for j in range(N):
        A = np.eye(N) - P
        A[j] = 0.0
        A[j, j] = 1.0
        b = np.ones(N)
        b[j] = 0.0
        M[:, j] = np.linalg.solve(A, b)
    return float(M[0] @ pi)


def oracle_vertex_P(g: Graph) -> np.ndarray:
    P = np.zeros((g.n, g.n))
    for u in range(g.n):
        for v in g.neighbors(u):
            P[u, v] = 1.0 / g.degrees[u]
    return P


def _arc_index(g: Graph) -> dict:
    arcs = []
    for u, v in g.edges:
        arcs.append((u, v))
        arcs.append((v, u))
    return {a: i for i, a in enumerate(arcs)}


def oracle_edge_P(g: Graph) -> np.ndarray:
    ai = _arc_index(g)
    P = np.zeros((len(ai), len(ai)))
    for (u, v), i in ai.items():
        for w in g.neighbors(v):
            P[i, ai[(v, w)]] = 1.0 / g.degrees[v]
    return P


def oracle_nb_P(g: Graph) -> np.ndarray:
    ai = _arc_index(g)
    P = np.zeros((len(ai), len(ai)))
    for (u, v), i in ai.items():
        for w in g.neighbors(v):
            if w != u:
                P[i, ai[(v, w)]] = 1.0 / (g.degrees[v] - 1)
    return P
