"""Simple undirected graphs: the core data type, graph6 I/O, structure
detection, and generators for the graph families used throughout the package.

Vertices are always 0..n-1.  Edges are stored as a sorted tuple of sorted
pairs, so two Graph objects built from the same edge set compare equal and
hash identically regardless of input order.  Adjacency is ``Graph.masks``,
one bitmask per row, which the census shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence


class GraphError(ValueError):
    """Raised for invalid graph construction or generator arguments."""


class Graph6Error(GraphError):
    """Raised on malformed graph6 input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise GraphError(f"graph needs at least one vertex, got n={self.n}")
        deg = [0] * self.n
        seen = set()
        for e in self.edges:
            u, v = e
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge {e} out of range for n={self.n}")
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed")
            if u > v:
                raise GraphError(f"edge {e} not sorted; use from_edge_list")
            if e in seen:
                raise GraphError(f"duplicate edge {e}")
            seen.add(e)
            deg[u] += 1
            deg[v] += 1
        if list(self.edges) != sorted(self.edges):
            raise GraphError("edge tuple not sorted; use from_edge_list")
        object.__setattr__(self, "degrees", tuple(deg))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Adjacency rows as bitmasks: bit v of masks[u] is set iff u ~ v."""
        rows = [0] * self.n
        for u, v in self.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return tuple(rows)

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_bits(self.masks[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.masks[u] >> v & 1)

    def is_connected(self) -> bool:
        return masks_connected(self.masks)

    def two_coloring(self) -> Optional[tuple[int, ...]]:
        """Proper 2-coloring as a tuple of 0/1, or None if an odd cycle exists.

        Works per component, by bitmask levels; component roots get color 0.
        """
        side = [0, 0]  # the vertices colored 0 and 1
        for root in range(self.n):
            if (side[0] | side[1]) >> root & 1:
                continue
            side[0] |= 1 << root
            level, color = 1 << root, 0
            while level:
                reach = 0
                for u in _bits(level):
                    reach |= self.masks[u]
                if reach & side[color]:
                    return None
                color ^= 1
                level = reach & ~side[color]
                side[color] |= level
        return tuple(side[1] >> v & 1 for v in range(self.n))


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def masks_connected(masks: Sequence[int]) -> bool:
    """Whether the graph with these adjacency rows (see ``Graph.masks``) is
    connected, by a search from vertex 0 over a bitmask frontier."""
    seen = frontier = 1
    while frontier:
        low = frontier & -frontier
        new = masks[low.bit_length() - 1] & ~seen
        seen |= new
        frontier = (frontier ^ low) | new
    return seen == (1 << len(masks)) - 1


def from_masks(masks: Sequence[int]) -> Graph:
    """The graph on len(masks) vertices with these symmetric adjacency rows
    (see ``Graph.masks``)."""
    return Graph(len(masks), tuple(
        (u, v) for u, row in enumerate(masks) for v in _bits(row & -2 << u)))


def from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph, normalizing edge order and rejecting loops/duplicates.

    Parameters
    ----------
    n : int
        Number of vertices.
    pairs : iterable of (int, int)
        Undirected edges in any order and orientation.

    Returns
    -------
    Graph
    """
    return Graph(n, tuple(sorted((u, v) if u < v else (v, u) for u, v in pairs)))


@dataclass(frozen=True)
class BiregularSplit:
    """Degree split (c, d, r, s) of a connected bipartite biregular graph.

    c <= d are the two degrees; r counts the degree-c vertices and s the
    degree-d vertices, so r >= s and c*r == d*s == m.
    """

    c: int
    d: int
    r: int
    s: int


@dataclass(frozen=True)
class StructuralProfile:
    """What a graph is: connectivity, degree structure, and family flags."""

    connected: bool
    min_degree: int
    max_degree: int
    regular_degree: Optional[int]
    bipartite: bool
    biregular: Optional[BiregularSplit]
    is_cycle: bool
    is_path: bool
    is_complete: bool


def profile(g: Graph) -> StructuralProfile:
    """Classify a graph's structure.

    The biregular field is populated only for connected bipartite graphs in
    which each side of the 2-coloring has uniform degree; the split is
    normalized so the smaller degree comes first (hence r >= s).
    """
    connected = g.is_connected()
    degs = g.degrees
    min_deg = min(degs)
    max_deg = max(degs)
    regular = min_deg if min_deg == max_deg else None
    coloring = g.two_coloring()
    bipartite = coloring is not None

    biregular = None
    if connected and bipartite and g.m >= 1:
        side = ([], [])
        for v in range(g.n):
            side[coloring[v]].append(v)
        deg_sets = [{degs[v] for v in side[0]}, {degs[v] for v in side[1]}]
        if len(deg_sets[0]) == 1 and len(deg_sets[1]) == 1:
            d0 = deg_sets[0].pop()
            d1 = deg_sets[1].pop()
            if d0 <= d1:
                biregular = BiregularSplit(d0, d1, len(side[0]), len(side[1]))
            else:
                biregular = BiregularSplit(d1, d0, len(side[1]), len(side[0]))

    is_cycle = connected and g.n >= 3 and regular == 2
    is_path = connected and (g.n == 1 or (g.m == g.n - 1 and max_deg <= 2))
    is_complete = g.m == g.n * (g.n - 1) // 2
    return StructuralProfile(
        connected=connected,
        min_degree=min_deg,
        max_degree=max_deg,
        regular_degree=regular,
        bipartite=bipartite,
        biregular=biregular,
        is_cycle=is_cycle,
        is_path=is_path,
        is_complete=is_complete,
    )


# ---------------------------------------------------------------------------
# graph6 (B. McKay, formats.txt): n <= 62 in one byte, n <= 258047 as byte
# 126 and three 6-bit bytes

_G6_HEADER = ">>graph6<<"
G6_MAX_N = 258047


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string with 1 <= n <= 258047.

    Parameters
    ----------
    text : str
        A graph6 line, optionally prefixed with the standard '>>graph6<<'
        header; surrounding whitespace is ignored.

    Returns
    -------
    Graph

    Raises
    ------
    Graph6Error
        On any malformed byte, with the byte offset into the stripped string.
    """
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    if s[0] != "~":
        n, start = ord(s[0]) - 63, 1
        if not 0 <= n <= 62:
            raise Graph6Error(f"invalid graph6 size character {s[0]!r}", 0)
    elif s[1:2] == "~":
        raise Graph6Error(f"graph6 order above {G6_MAX_N} not supported", 0)
    else:
        size = [ord(ch) - 63 for ch in s[1:4]]
        if len(size) < 3 or not all(0 <= v <= 63 for v in size):
            raise Graph6Error("invalid graph6 long-form size", 0)
        n, start = size[0] << 12 | size[1] << 6 | size[2], 4
        if n <= 62:
            raise Graph6Error(f"long-form graph6 size {n} must be at least 63", 0)
    if n < 1:
        raise Graph6Error("graph6 order 0 not supported", 0)
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    data = s[start:]
    if len(data) < nchars:
        raise Graph6Error(
            f"truncated graph6 data: expected {nchars} characters, got {len(data)}",
            len(s),
        )
    if len(data) > nchars:
        raise Graph6Error(
            f"trailing graph6 data: expected {nchars} characters, got {len(data)}",
            start + nchars,
        )
    bits = []
    for i, ch in enumerate(data):
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise Graph6Error(f"invalid graph6 data character {ch!r}", start + i)
        for b in range(5, -1, -1):
            bits.append((v >> b) & 1)
    for i in range(nbits, len(bits)):
        if bits[i]:
            raise Graph6Error("nonzero padding bits", start + i // 6)
    edges = []
    k = 0
    for col in range(1, n):
        for row in range(col):
            if bits[k]:
                edges.append((row, col))
            k += 1
    return from_edge_list(n, edges)


def check_graph6_order(n: int) -> None:
    """Raise GraphError unless graph6 can encode n vertices."""
    if n > G6_MAX_N:
        raise GraphError(f"graph6 limited to n <= {G6_MAX_N}, got n={n}")


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (requires n <= 258047): the short
    form up to n = 62, the long form beyond."""
    check_graph6_order(g.n)
    return masks_graph6(g.masks)


def masks_graph6(masks: Sequence[int]) -> str:
    """graph6 of the graph with these adjacency rows, unchecked for size:
    column c of the upper triangle is the low c bits of row c, row 0 first."""
    n = len(masks)
    bits = "".join(format(masks[c] & (1 << c) - 1, f"0{c}b")[::-1] for c in range(1, n))
    bits += "0" * (-len(bits) % 6)
    size = [n] if n <= 62 else [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    return "".join(chr(v + 63) for v in size + [
        int(bits[i:i + 6], 2) for i in range(0, len(bits), 6)])


def read_graph6(lines: Iterable[str]) -> Iterator[Graph]:
    """Yield graphs from an iterable of graph6 lines, skipping blanks."""
    for line in lines:
        if line.strip():
            yield parse_graph6(line)


# ---------------------------------------------------------------------------
# generators

def gen_complete(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"complete graph needs n >= 1, got {n}")
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def gen_complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GraphError(f"complete bipartite sides must be >= 1, got ({a}, {b})")
    return from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def gen_path(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"path needs n >= 1, got {n}")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def _end_bead(base: int) -> tuple[list[tuple[int, int]], int]:
    # K4 on base..base+3 minus the (base+2, base+3) edge, plus an apex
    # (base+4) joined to both endpoints of the missing edge.  The apex is
    # the bead's connection point to the chain.
    e = [
        (base, base + 1), (base, base + 2), (base, base + 3),
        (base + 1, base + 2), (base + 1, base + 3),
        (base + 2, base + 4), (base + 3, base + 4),
    ]
    return e, base + 4


def _middle_bead(base: int) -> tuple[list[tuple[int, int]], int, int]:
    # K4 on base..base+3 minus the entry-exit edge (base, base+2).
    e = [
        (base, base + 1), (base, base + 3),
        (base + 1, base + 2), (base + 1, base + 3),
        (base + 2, base + 3),
    ]
    return e, base, base + 2


def gen_necklace(beads: int) -> Graph:
    """Necklace of k >= 2 beads: a 3-regular chain on n = 4k + 2 vertices.

    Two end beads of five vertices (K4 minus an edge plus an apex joined to
    the missing edge's endpoints) flank k - 2 middle beads of four vertices
    (K4 minus the entry-exit edge); consecutive beads are joined by single
    edges, apex to entry.
    """
    if beads < 2:
        raise GraphError(f"necklace needs at least 2 beads, got {beads}")
    edges: list[tuple[int, int]] = []
    left, left_link = _end_bead(0)
    edges += left
    prev_exit = left_link
    base = 5
    for _ in range(beads - 2):
        mid, entry, exit_ = _middle_bead(base)
        edges += mid
        edges.append((prev_exit, entry))
        prev_exit = exit_
        base += 4
    right, right_link = _end_bead(base)
    edges += right
    edges.append((prev_exit, right_link))
    return from_edge_list(base + 5, edges)


@dataclass(frozen=True)
class BarbellParams:
    """Cycle-barbell parameters: cycles of length a and b joined by a path
    on k vertices (endpoints shared with the cycles)."""

    k: int
    a: int
    b: int

    def __post_init__(self):
        if self.a < 3 or self.b < 3:
            raise GraphError(f"barbell cycles need length >= 3, got a={self.a}, b={self.b}")
        if self.k < 1:
            raise GraphError(f"barbell path needs k >= 1 vertices, got k={self.k}")

    @property
    def n(self) -> int:
        return self.a + self.b + self.k - 2

    @property
    def m(self) -> int:
        return self.a + self.b + self.k - 1


def gen_cycle_barbell(k: int, a: int, b: int) -> Graph:
    """Cycle barbell: an a-cycle and a b-cycle joined by a path on k vertices.

    The path's endpoints are vertices of the respective cycles; k = 1 merges
    the two cycles at a single degree-4 vertex.
    """
    p = BarbellParams(k, a, b)
    edges = [(i, (i + 1) % a) for i in range(a)]
    # path: vertex 0 of the left cycle, then k-1 fresh vertices
    prev = 0
    for i in range(k - 1):
        nxt = a + i
        edges.append((prev, nxt))
        prev = nxt
    # right cycle through the path's last vertex
    right = [prev] + [a + k - 1 + i for i in range(b - 1)]
    for i in range(b):
        edges.append((right[i], right[(i + 1) % b]))
    return from_edge_list(p.n, edges)


def one_sum(g1: Graph, v1: int, g2: Graph, v2: int) -> Graph:
    """Glue two graphs at a single shared vertex (the 1-sum).

    Vertices of g1 keep their labels; v2 maps onto v1 and the remaining
    vertices of g2 shift up to n1, n1+1, ... in their original order.
    """
    if not 0 <= v1 < g1.n:
        raise GraphError(f"vertex {v1} out of range for first graph")
    if not 0 <= v2 < g2.n:
        raise GraphError(f"vertex {v2} out of range for second graph")

    def remap(w: int) -> int:
        if w == v2:
            return v1
        return g1.n + w - (1 if w > v2 else 0)

    edges = list(g1.edges) + [(remap(u), remap(w)) for u, w in g2.edges]
    return from_edge_list(g1.n + g2.n - 1, edges)
