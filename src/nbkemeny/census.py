"""Exhaustive small-graph censuses and barbell sweeps.

Provides a self-contained canonical form (equitable refinement with
individualization, maximizing the relabeled adjacency bitstring), an
isomorphism-free enumerator for the connected graphs on 4..8 vertices
built on it, which keeps the first child seen per class and augments only
one non-edge per orbit of the automorphisms the canonical search proves
(isomorph rejection as in McKay, "Isomorph-free exhaustive generation",
J. Algorithms 1998; the pruned children would never have been first), the
edge-vs-non-backtracking comparison census over the enumerated graphs on
which that walk exists or over an externally supplied graph6 corpus, and
the balanced cycle-barbell sweep.  The enumerator searches in one child
process, a level ahead of the caller, so a census evaluates one level
while the next is being found.  Census values are computed with the
float charpoly route (one inverse per walk, no eigensolve), and
near-ties are decided by the exact charpoly route; the tests check the
values on n <= 7 vertices against the spectral route and spot-check the
others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .chains import build_matrix, nb_walk_defect
from .engine import (
    DEFAULT_TOL, EXACT_STATE_CAP, agree, kemeny_charpoly,
)
from .formulas import barbell_kemeny
from .graphs import (
    BarbellParams, Graph, Graph6Error, GraphError, parse_graph6, to_graph6,
)
from .ratmath import format_scalar


class CensusError(ValueError):
    """Raised when a census request falls outside the supported domain."""


# ---------------------------------------------------------------------------
# canonical form
#
# Certificate: the lexicographically greatest tuple of adjacency row
# bitmasks over all labelings the refinement search admits.  Vertices in
# the same cell that a transposition swaps onto each other (twins) branch
# only once, which keeps highly symmetric graphs from exploding the
# search.  The search reports the automorphisms it proves along the way,
# the skipped twin swaps and the maps between leaves of equal
# certificate, which the enumerator uses to skip isomorphic children.


def _refine(adj: Sequence[int], cells: list, splitters: list, width: int) -> list:
    # Each round splits every cell by its vertices' neighbour counts in
    # the round's cells, sub-cells in descending order of the count tuple,
    # until a round splits nothing (the partition is equitable).  Vertices
    # that share a cell have equal counts in every cell the previous round
    # left whole, so the cells it created (`splitters`, as masks in cell
    # order; the caller names those of the first round) decide both the
    # split and its order.  A signature packs the counts in the splitters
    # `width` bits each, first highest; every count is below 2**width, so
    # the integers order as the tuples do.
    n = len(adj)
    while splitters and len(cells) < n:
        new_cells = []
        new_splitters = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                row = adj[v]
                sig = 0
                for mask in splitters:
                    sig = sig << width | (row & mask).bit_count()
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
                continue
            for sig in sorted(groups, reverse=True):
                group = groups[sig]
                new_cells.append(group)
                mask = 0
                for v in group:
                    mask |= 1 << v
                new_splitters.append(mask)
        cells, splitters = new_cells, new_splitters
    return cells


def _certificate(adj: Sequence[int], order: Sequence[int]) -> tuple:
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    rows = [0] * len(order)
    for i, v in enumerate(order):
        bits = adj[v]
        while bits:
            low = bits & -bits
            rows[i] |= 1 << pos[low.bit_length() - 1]
            bits ^= low
    return tuple(rows)


def _canonical_core(n: int, adj: Sequence[int]) -> tuple:
    """Best (certificate, vertex order) over the refinement search tree,
    with the automorphisms the search proved on the way, each a tuple
    mapping vertex v to its image."""
    width = n.bit_length()
    best_cert: Optional[tuple] = None
    best_order: Optional[list] = None
    generators = []

    def descend(cells: list) -> None:
        nonlocal best_cert, best_order
        for i, cell in enumerate(cells):
            if len(cell) == 1:
                continue
            reps = []
            for v in cell:
                # swapping true twins is an automorphism (recorded), so
                # one branch per twin class suffices
                for u in reps:
                    if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                        swap = list(range(n))
                        swap[u], swap[v] = v, u
                        generators.append(tuple(swap))
                        break
                else:
                    reps.append(v)
            for v in reps:
                # the partition is equitable, so within any cell the count
                # in `rest` is a constant minus the count in [v]
                rest = [w for w in cell if w != v]
                descend(_refine(adj, cells[:i] + [[v], rest] + cells[i + 1:],
                                [1 << v], width))
            return
        order = [v for cell in cells for v in cell]
        cert = _certificate(adj, order)
        if best_cert is None or cert > best_cert:
            best_cert, best_order = cert, order
        elif cert == best_cert:
            # both orders relabel the graph onto the same certificate
            image = [0] * n
            for a, b in zip(best_order, order):
                image[a] = b
            generators.append(tuple(image))

    descend(_refine(adj, [list(range(n))], [(1 << n) - 1], width))
    return best_cert, best_order, generators


def _adjacency_masks(g: Graph) -> list:
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def canonical_labeling(g: Graph) -> tuple:
    """Canonical relabeling (old index -> new index): two graphs are
    isomorphic iff their relabeled edge sets coincide."""
    _, order, _ = _canonical_core(g.n, _adjacency_masks(g))
    perm = [0] * g.n
    for new, old in enumerate(order):
        perm[old] = new
    return tuple(perm)


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy of a graph."""
    perm = canonical_labeling(g)
    edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges)
    return Graph(g.n, tuple(edges))


# Largest graph the canonical search takes: it has no automorphism pruning,
# and the 6-cube (n = 64) alone would take about 20 s.
CANONICAL_MAX_N = 62


def _canonical_defect(g: Graph) -> Optional[str]:
    if g.n > CANONICAL_MAX_N:
        return f"canonical form limited to n <= {CANONICAL_MAX_N}, got n={g.n}"
    return None


def canonical_graph6(g: Graph) -> str:
    """graph6 encoding of the canonical form; equal strings mean
    isomorphic graphs.  A graph above ``CANONICAL_MAX_N`` vertices is
    refused before the search."""
    defect = _canonical_defect(g)
    if defect is not None:
        raise GraphError(defect)
    return to_graph6(canonical_graph(g))


# ---------------------------------------------------------------------------
# exhaustive enumeration, 4 <= n <= 8


def _mask_graph(n: int, adj: Sequence[int]) -> Graph:
    return Graph(n, tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1))


def _mask_connected(adj: Sequence[int]) -> bool:
    """Whether the graph with these adjacency row bitmasks is connected,
    by a search from vertex 0 over a bitmask frontier."""
    seen = frontier = 1
    while frontier:
        low = frontier & -frontier
        new = adj[low.bit_length() - 1] & ~seen
        seen |= new
        frontier = (frontier ^ low) | new
    return seen == (1 << len(adj)) - 1


def _orbit_leaders(n: int, adj: Sequence[int], generators: list) -> Iterator[tuple]:
    """The first non-edge (u, v), in (u, v) loop order, of each orbit of
    non-edges under the group the automorphisms generate."""
    covered = set()
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u] >> v & 1 or (u, v) in covered:
                continue
            yield u, v
            covered.add((u, v))
            stack = [(u, v)]
            while stack:
                a, b = stack.pop()
                for image in generators:
                    x, y = image[a], image[b]
                    pair = (x, y) if x < y else (y, x)
                    if pair not in covered:
                        covered.add(pair)
                        stack.append(pair)


def _levels(n: int) -> Iterator[list]:
    """Each edge count's connected representatives, as adjacency-row
    tuples in ascending order, from 0 edges up (see enumerate_graphs)."""
    empty = (0,) * n
    cert, _, generators = _canonical_core(n, empty)
    level = {cert: (empty, generators)}
    while level:
        yield [adj for adj, _ in sorted(level.values())
               if _mask_connected(adj)]
        nxt = {}
        for adj, generators in level.values():
            for u, v in _orbit_leaders(n, adj, generators):
                cand = list(adj)
                cand[u] |= 1 << v
                cand[v] |= 1 << u
                cert, _, found = _canonical_core(n, cand)
                if cert not in nxt:
                    nxt[cert] = (tuple(cand), found)
        level = nxt


def _send_levels(n: int, conn) -> None:
    # the enumeration process: one message per level, then None; an error
    # ends the stream in place of None.  An interrupt is the caller's to
    # answer, by terminating this process.
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        for rows in _levels(n):
            conn.send(rows)
    except Exception as exc:
        conn.send(exc)
    else:
        conn.send(None)


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """Yield one representative per isomorphism class of connected graphs
    on n vertices (OEIS A001349 counts them).

    Built-in generation covers 4 <= n <= 8 by breadth-first edge
    augmentation over canonical representatives; larger vertex counts
    must come from an external graph6 corpus.  Each level keeps, per
    canonical certificate, the first child seen in parent order and
    (u, v) loop order, and yields the level's connected graphs sorted by
    adjacency rows (the disconnected ones still parent the next level).
    Non-edges of a parent in one orbit of the automorphisms its
    canonical search proved give isomorphic children, so only the first
    of each orbit is augmented.  That one is seen before the rest, so
    every class keeps the representative that augmenting every non-edge
    would keep, and the yielded graphs and their order do not change.

    The search runs in one child process (``multiprocessing``, default
    start method), which sends each level's adjacency rows down a pipe as
    soon as it has them and goes on to the next level while the caller
    consumes this one: enumeration and the caller's work share two cores.
    The child is terminated and joined when the generator finishes, is
    closed or is left by an exception; an error in the child is raised
    here, and so is its exit before the last level.
    """
    if not 4 <= n <= 8:
        raise CensusError(
            f"built-in enumeration covers 4 <= n <= 8, not n={n}; "
            "feed a graph6 corpus instead")
    # imported here so that importing the package does not load it
    import multiprocessing

    recv_end, send_end = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.Process(target=_send_levels, args=(n, send_end), daemon=True)
    child.start()
    # the child holds the only write end left, so a receive after it has
    # gone raises EOFError instead of waiting
    send_end.close()
    try:
        while True:
            try:
                rows = recv_end.recv()
            except EOFError:
                child.join()
                raise CensusError(
                    f"enumeration process exited with code {child.exitcode} "
                    "before finishing") from None
            if rows is None:
                return
            if isinstance(rows, Exception):
                raise rows
            for adj in rows:
                yield _mask_graph(n, adj)
    finally:
        child.terminate()
        child.join()
        recv_end.close()


# ---------------------------------------------------------------------------
# edge vs non-backtracking census


@dataclass(frozen=True)
class CensusRecord:
    """One graph's comparison outcome.

    k_e and k_nb are the float charpoly route's values.  When they lie within
    ``TIE_SCREEN`` (relative) and both walks have at most
    ``engine.EXACT_STATE_CAP`` states, diff_sign compares the exact
    charpoly values instead, and 'equal' means K_nb = K_e exactly; above
    the cap it is 'equal' when ``engine.agree(K_nb, K_e, DEFAULT_TOL)``
    (|K_nb - K_e| <= 1e-9 below K = 256).  Otherwise it is 'nb_smaller' or
    'nb_larger_or_equal' (K_nb > K_e), a name kept for stable output bytes.
    """

    graph_id: str
    n: int
    m: int
    k_e: float
    k_nb: float
    diff_sign: str


class CensusResult(NamedTuple):
    count: int
    records: tuple
    skipped: tuple


# Relative gap below which a census graph's two walks are compared exactly;
# the nearest non-tie on n <= 8 vertices is 1.3e-4 apart.
TIE_SCREEN = 1e-6


def _evaluate(g: Graph) -> CensusRecord:
    p_e = build_matrix(g, "edge", exact=False)
    p_nb = build_matrix(g, "non-backtracking", exact=False)
    k_e, k_nb = kemeny_charpoly(p_e), kemeny_charpoly(p_nb)
    e, nb = k_e, k_nb
    if (math.isclose(k_nb, k_e, rel_tol=TIE_SCREEN)
            and max(p_e.order, p_nb.order) <= EXACT_STATE_CAP):
        e = kemeny_charpoly(build_matrix(g, "edge", exact=True))
        nb = kemeny_charpoly(build_matrix(g, "non-backtracking", exact=True))
    if agree(nb, e, DEFAULT_TOL):
        sign = "equal"
    elif nb > e:
        sign = "nb_larger_or_equal"
    else:
        sign = "nb_smaller"
    return CensusRecord(canonical_graph6(g), g.n, g.m, k_e, k_nb, sign)


def _qualify(g: Graph) -> Optional[str]:
    if not g.is_connected():
        return "not connected"
    return nb_walk_defect(g) or _canonical_defect(g)


def census_nb_vs_edge(source: Union[int, Iterable]) -> CensusResult:
    """Count graphs whose non-backtracking Kemeny's constant is at least
    the edge-space one, ties decided as CensusRecord says.

    ``source`` is either a vertex count (built-in exhaustive enumeration,
    4 <= n <= 8) or an iterable of graph6 lines / Graph objects, not one
    str or bytes (CensusError).  A bytes line, as read from a file opened
    in binary mode, is decoded as ASCII.  Only connected graphs without a
    ``chains.nb_walk_defect`` are counted.
    Other stream entries are tallied in ``skipped`` as (entry, reason)
    pairs: "not connected", the defect, the canonical form's size limit or
    the parse error (for a bytes line also a non-ASCII byte, with its
    offset in the stripped line).  Records are ordered by (n, m, graph_id).
    """
    records = []
    skipped = []
    if isinstance(source, int):
        for g in enumerate_graphs(source):  # connected by construction
            if nb_walk_defect(g) is None:
                records.append(_evaluate(g))
    elif isinstance(source, (str, bytes)):
        raise CensusError("census source is one string; pass an iterable of graph6 lines")
    else:
        for item in source:
            try:
                if isinstance(item, bytes):
                    item = item.strip()
                    try:
                        item = item.decode("ascii")
                    except UnicodeDecodeError as exc:
                        # the skip entry shows the line with the byte escaped
                        item = item.decode("ascii", "backslashreplace")
                        raise Graph6Error("non-ASCII graph6 byte", exc.start) from None
                g = item if isinstance(item, Graph) else parse_graph6(str(item))
            except GraphError as exc:
                skipped.append((str(item).strip(), str(exc)))
                continue
            reason = _qualify(g)
            if reason is not None:
                skipped.append((to_graph6(g), reason))
                continue
            records.append(_evaluate(g))
    records.sort(key=lambda r: (r.n, r.m, r.graph_id))
    count = sum(1 for r in records if r.diff_sign != "nb_smaller")
    return CensusResult(count, tuple(records), tuple(skipped))


def census_csv(records: Iterable[CensusRecord]) -> str:
    """Render census records as CSV with a fixed header."""
    lines = ["graph6,n,m,k_e,k_nb,diff_sign"]
    for r in records:
        lines.append(
            f"{r.graph_id},{r.n},{r.m},{r.k_e:.12g},{r.k_nb:.12g},{r.diff_sign}")
    return "\n".join(lines) + "\n"


def census_summary(result: CensusResult, n: Optional[int] = None) -> dict:
    """JSON-ready summary of a census run."""
    if n is None:
        ns = sorted({r.n for r in result.records})
        n = ns[0] if len(ns) == 1 else ns
    return {
        "n": n,
        "total": len(result.records),
        "count_nb_ge_e": result.count,
        "equal_list": [r.graph_id for r in result.records
                       if r.diff_sign == "equal"],
    }


# ---------------------------------------------------------------------------
# balanced barbell sweep


@dataclass(frozen=True)
class SweepRow:
    """One balanced cycle barbell CB(k, a, a) on a fixed vertex count."""

    k: int
    a: int
    b: int
    k_e: Fraction
    k_nb: Fraction


def barbell_sweep(n: int) -> list:
    """Balanced cycle-barbell sweep on n vertices.

    For each path length 2 <= k <= n - 4 with an integral balanced split
    a = b = (n - k + 2)/2, evaluates the exact closed forms.  Odd totals
    n - k + 2 have no balanced split and are omitted; use sweep_skipped
    for the list.  Values are exact fractions.
    """
    if n < 6:
        raise CensusError("a balanced barbell sweep needs n >= 6")
    rows = []
    skipped = sweep_skipped(n)
    for k in range(2, n - 3):
        if k not in skipped:
            a = (n - k + 2) // 2
            _, k_e, k_nb = barbell_kemeny(BarbellParams(k, a, a))
            rows.append(SweepRow(k, a, a, k_e, k_nb))
    return rows


def sweep_skipped(n: int) -> list:
    """Path lengths omitted from the balanced sweep on n vertices: those
    with an odd n - k + 2, which has no balanced split (the sweep's
    k <= n - 4 already makes every split a >= 3)."""
    return [k for k in range(2, n - 3) if (n - k + 2) % 2]


def sweep_csv(rows: Iterable[SweepRow]) -> str:
    """Render sweep rows as CSV, fractions as p/q."""
    lines = ["k,a,b,k_e,k_nb"]
    for r in rows:
        lines.append(f"{r.k},{r.a},{r.b},{format_scalar(r.k_e)},"
                     f"{format_scalar(r.k_nb)}")
    return "\n".join(lines) + "\n"
