"""Exhaustive small-graph censuses and barbell sweeps.

Provides a self-contained canonical form (equitable refinement with
individualization, maximizing the relabeled adjacency bitstring), an
isomorphism-free enumerator for the connected graphs on 4..8 vertices
built on it, the edge-vs-non-backtracking comparison census over the
enumerated graphs on which that walk exists or over an externally
supplied graph6 corpus, and the balanced cycle-barbell sweep.  The
enumerator is a depth-first canonical augmentation (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998): a parent adds one non-edge
per orbit of the automorphisms its canonical search proves, and a child
is kept only if the added edge is its canonical deletion edge up to its
own automorphisms, so every class is found once, with one stack and no
table of certificates.  It augments only up to half the n(n-1)/2
possible edges: complementation is a bijection on isomorphism classes,
so each class above the half is the complement of one class below it,
read off that class's rows.  It works on ``graphs.Graph.masks``,
adjacency row bitmasks.  It searches in one forked child
(``engine._fork``, the engine's large-walk child), which sends each
parent's children and their complements as soon as it has them, so a
census evaluates while the search goes on; where no child may be forked
(one CPU, no Linux thread count: macOS and Windows, or a failed fork) it
searches in this process, with the same graphs and bytes.  Census
values are computed with the float charpoly route (no eigensolve), K_e as K_v + 2m - n from
the n-state vertex walk.  The caller names each graph as it arrives and
holds it with the others of its (n, m) until their batch is full
(``BATCH_ENTRIES``); a batch stacks its vertex walks and its
non-backtracking walks, and each stack takes one stacked solve
(``engine.kemeny_charpoly_stack``), with the values one walk alone gives.
Near-ties are then decided one graph at a time by the exact charpoly
route; the tests check the values on n <= 7 vertices against the
spectral route on the edge and non-backtracking walks and spot-check the
others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .chains import build_matrix, nb_walk_defect, walk_stack
from .engine import (
    DEFAULT_TOL, EXACT_STATE_CAP, _fork, agree, kemeny_charpoly, kemeny_charpoly_stack,
)
from .formulas import barbell_kemeny
from .graphs import (
    BarbellParams, Graph, Graph6Error, GraphError, from_masks, masks_connected,
    masks_graph6, parse_graph6, to_graph6,
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


def canonical_labeling(g: Graph) -> tuple:
    """Canonical relabeling (old index -> new index): two graphs are
    isomorphic iff their relabeled edge sets coincide."""
    _, order, _ = _canonical_core(g.n, g.masks)
    perm = [0] * g.n
    for new, old in enumerate(order):
        perm[old] = new
    return tuple(perm)


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy of a graph, built from its certificate."""
    return from_masks(_canonical_core(g.n, g.masks)[0])


# Largest graph the canonical search takes: it has no automorphism pruning,
# and the 6-cube (n = 64) alone would take about 20 s.
CANONICAL_MAX_N = 62


def _canonical_defect(g: Graph) -> Optional[str]:
    if g.n > CANONICAL_MAX_N:
        return f"canonical form limited to n <= {CANONICAL_MAX_N}, got n={g.n}"
    return None


def canonical_graph6(g: Graph) -> str:
    """graph6 encoding of the canonical form, read straight off the
    certificate; equal strings mean isomorphic graphs.  A graph above
    ``CANONICAL_MAX_N`` vertices is refused before the search."""
    defect = _canonical_defect(g)
    if defect is not None:
        raise GraphError(defect)
    return masks_graph6(_canonical_core(g.n, g.masks)[0])


# ---------------------------------------------------------------------------
# exhaustive enumeration, 4 <= n <= 8


def _close_orbit(seen: set, pair: tuple, generators: list) -> set:
    """``seen`` with the orbit of the vertex pair (u, v), u < v, under the
    group the automorphisms generate added to it."""
    seen.add(pair)
    stack = [pair]
    while stack:
        a, b = stack.pop()
        for image in generators:
            x, y = image[a], image[b]
            pair = (x, y) if x < y else (y, x)
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return seen


def _orbit_leaders(n: int, adj: Sequence[int], generators: list) -> Iterator[tuple]:
    """The first non-edge (u, v), in (u, v) loop order, of each orbit of
    non-edges under the group the automorphisms generate."""
    covered = set()
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u] >> v & 1 or (u, v) in covered:
                continue
            yield u, v
            _close_orbit(covered, (u, v), generators)


def _edge_keys(adj: Sequence[int]) -> list:
    """Every edge (u, v), u < v, as ((min, max endpoint degree), u, v),
    largest key first."""
    deg = [row.bit_count() for row in adj]
    keys = []
    for u, row in enumerate(adj):
        row &= -2 << u
        while row:
            low = row & -row
            v = low.bit_length() - 1
            a, b = deg[u], deg[v]
            keys.append(((a, b) if a < b else (b, a), u, v))
            row ^= low
    keys.sort(reverse=True)
    return keys


def _outranked(keys: list, adj: Sequence[int], u: int, v: int) -> bool:
    """Whether some other edge of the child ``adj`` (the parent plus
    (u, v)) has a larger key than (u, v), read off the parent's ``keys``:
    only edges at u or v change their key.  Such a child is never kept."""
    du, dv = adj[u].bit_count(), adj[v].bit_count()
    key = (du, dv) if du < dv else (dv, du)
    for k, a, b in keys:
        if a != u and a != v and b != u and b != v:
            if k > key:
                return True
            break
    for x, dx in ((u, du), (v, dv)):
        row = adj[x] & ~(1 << u | 1 << v)
        while row:
            low = row & -row
            dw = adj[low.bit_length() - 1].bit_count()
            if ((dx, dw) if dx < dw else (dw, dx)) > key:
                return True
            row ^= low
    return False


def _deletion_matches(adj: Sequence[int], order: Sequence[int],
                      generators: list, u: int, v: int) -> bool:
    """Whether (u, v) lies in the orbit of the canonical deletion edge of
    ``adj`` under the group ``generators`` generate: of the edges with the
    largest key (min, max endpoint degree), the one latest (max pos, min
    pos) in the canonical vertex ``order``."""
    pos = [0] * len(order)
    for i, w in enumerate(order):
        pos[w] = i
    best = None
    for key, a, b in _edge_keys(adj):
        if best is not None and key < best[0]:
            break
        late = (pos[a], pos[b]) if pos[a] > pos[b] else (pos[b], pos[a])
        if best is None or late > best[1]:
            best = (key, late, a, b)
    return best[2:] == (u, v) or (u, v) in _close_orbit(set(), best[2:], generators)


def _search(n: int) -> Iterator[list]:
    """The connected graphs on n vertices, one per isomorphism class, as
    lists of adjacency-row tuples: the empty graph's item first, then one
    item per parent, depth-first, with each kept child and then its
    complement, those of the two that are connected.  The search stops at
    half the n(n-1)/2 possible edges (see enumerate_graphs).  Empty lists
    are not yielded."""
    full = (1 << n) - 1
    pairs = n * (n - 1) // 2
    half = pairs // 2

    def with_complement(adj: tuple, m: int) -> list:
        rows = [adj] if masks_connected(adj) else []
        if 2 * m < pairs:
            co = tuple(full & ~row & ~(1 << i) for i, row in enumerate(adj))
            if masks_connected(co):
                rows.append(co)
        return rows

    root = (0,) * n
    rows = with_complement(root, 0)
    if rows:
        yield rows
    stack = [(root, _canonical_core(n, root)[2], 0)] if half else []
    while stack:
        adj, generators, size = stack.pop()
        m = size + 1  # each child's edge count
        keys = _edge_keys(adj)
        kept = []
        for u, v in _orbit_leaders(n, adj, generators):
            child = list(adj)
            child[u] |= 1 << v
            child[v] |= 1 << u
            if _outranked(keys, child, u, v):
                continue
            _, order, found = _canonical_core(n, child)
            if _deletion_matches(child, order, found, u, v):
                kept.append((tuple(child), found, m))
        rows = [row for child, _, _ in kept for row in with_complement(child, m)]
        if rows:
            yield rows
        if m < half:
            stack.extend(reversed(kept))


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """Yield one representative per isomorphism class of connected graphs
    on n vertices (OEIS A001349 counts them).

    Built-in generation covers 4 <= n <= 8 by depth-first edge
    augmentation from the empty graph; larger vertex counts must come
    from an external graph6 corpus.  A parent adds the first non-edge
    (u, v), in (u, v) loop order, of each orbit of the automorphisms its
    canonical search proved, since the others give isomorphic children.
    A child is kept only if the added edge lies in the orbit of its
    canonical deletion edge under the child's own proven automorphisms:
    of the edges with the largest key (min, max endpoint
    degree), the one latest (max pos, min pos) in the canonical vertex
    order.  The key is an invariant, so a child in which another edge
    outranks the added one is rejected first, with no canonical search.
    Every class is then reached from exactly one parent, whichever
    representative the search meets first, and the disconnected graphs
    still parent the rest.  The augmentation stops at m = floor(M/2)
    edges, M = n(n-1)/2: a class with 2m < M also gives its complement,
    the rows ``full & ~adj[i] & ~(1 << i)``, which has M - m > M/2 edges,
    and complementation maps classes one to one, so each class above the
    half is the complement of exactly one class the search keeps.  A
    class with 2m = M (self-complementary ones among them) comes from the
    search alone.  The graphs come out parent by parent: each of the
    parent's kept children in (u, v) order, then its complement, those
    of the two that are connected; then each child's subtree in turn,
    the first child's first.

    Where ``engine._fork`` forks (POSIX fork, a readable kernel thread
    count, which Linux gives, and more than one CPU) the search
    runs in one forked child, an ``engine._ForkedStream``, which sends
    each parent's connected children down a pipe as one item and goes on
    searching while the caller consumes them: enumeration and the
    caller's work share two cores.  A BLAS pool does not stop it, since
    the search makes no BLAS call.  The child is killed and reaped when
    the generator finishes, is closed or is left by an exception; an
    error in the child is raised here, and so is its exit before the end
    of the search (CensusError).  Elsewhere the same search runs in this
    process, with the same graphs in the same order.
    """
    if not 4 <= n <= 8:
        raise CensusError(
            f"built-in enumeration covers 4 <= n <= 8, not n={n}; "
            "feed a graph6 corpus instead")
    child = _fork(lambda: _search(n), CensusError)
    try:
        for rows in _search(n) if child is None else child:
            for adj in rows:
                yield from_masks(adj)
    finally:
        if child is not None:
            child.close()


# ---------------------------------------------------------------------------
# edge vs non-backtracking census


@dataclass(frozen=True)
class CensusRecord:
    """One graph's comparison outcome.

    k_e and k_nb are the float charpoly route's values, k_e read off the
    vertex walk by the shift identity K_e = K_v + 2m - n.  When they lie
    within ``TIE_SCREEN`` (relative) and the arc walks have at most
    ``engine.EXACT_STATE_CAP`` states (2m), diff_sign compares the exact
    charpoly values instead, k_e again by the shift identity, and 'equal'
    means K_nb = K_e exactly; above the cap it is 'equal' when
    ``engine.agree(K_nb, K_e, DEFAULT_TOL)`` (|K_nb - K_e| <= 1e-9 below
    K = 256).  Otherwise it is 'nb_smaller' or
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

# Entries, graphs times (2m)^2, that a census batch of one (n, m) holds
# before its walks are stacked and solved.  At n = 8, smaller budgets ran
# slower (2^11 by about half) and 2^15 no faster, and 2^16 raised the
# caller's peak memory by 1.6 MB.
BATCH_ENTRIES = 1 << 14


def _evaluate_batch(names: Sequence[str], graphs: Sequence[Graph]) -> list:
    """The records of graphs of one (n, m), named ``names``: one stacked
    float charpoly per walk, then each near-tie decided alone."""
    k_v = kemeny_charpoly_stack(walk_stack(graphs, "vertex"))
    k_nb = kemeny_charpoly_stack(walk_stack(graphs, "non-backtracking"))
    return [_record(*args) for args in zip(names, graphs, k_v.tolist(), k_nb.tolist())]


def _record(name: str, g: Graph, k_v: float, k_nb: float) -> CensusRecord:
    shift = 2 * g.m - g.n  # K_e = K_v + 2m - n
    k_e = k_v + shift
    e, nb = k_e, k_nb
    # both arc walks have 2m states
    if math.isclose(k_nb, k_e, rel_tol=TIE_SCREEN) and 2 * g.m <= EXACT_STATE_CAP:
        e = kemeny_charpoly(build_matrix(g, "vertex", exact=True)) + shift
        nb = kemeny_charpoly(build_matrix(g, "non-backtracking", exact=True))
    if agree(nb, e, DEFAULT_TOL):
        sign = "equal"
    elif nb > e:
        sign = "nb_larger_or_equal"
    else:
        sign = "nb_smaller"
    return CensusRecord(name, g.n, g.m, k_e, k_nb, sign)


def _evaluate(g: Graph) -> CensusRecord:
    """One graph's record: the batch of one."""
    return _evaluate_batch([canonical_graph6(g)], [g])[0]


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

    Each counted graph is named by ``canonical_graph6`` as it arrives and
    then waits with the others of its (n, m); a batch is evaluated when it
    holds ``BATCH_ENTRIES`` entries, and every batch at the end.  The
    values do not depend on the batches (see ``engine.kemeny_charpoly_stack``).
    """
    held = {}  # (n, m) -> (names, graphs) waiting for evaluation
    records = []
    skipped = []

    def add(g: Graph) -> None:
        names, graphs = held.setdefault((g.n, g.m), ([], []))
        names.append(canonical_graph6(g))
        graphs.append(g)
        if len(graphs) * (2 * g.m) ** 2 >= BATCH_ENTRIES:
            records.extend(_evaluate_batch(*held.pop((g.n, g.m))))

    if isinstance(source, int):
        for g in enumerate_graphs(source):  # connected by construction
            if nb_walk_defect(g) is None:
                add(g)
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
            add(g)
    for batch in held.values():
        records.extend(_evaluate_batch(*batch))
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
