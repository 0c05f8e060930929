"""Reference canonical form and enumerator for the census tests.

These are the canonical search and the unpruned level-by-level enumerator
as they stood before refinement keyed on packed integers and enumeration
pruned non-edges by automorphism orbits.  The tests require the library
to return the same certificates and vertex orders, and to enumerate the
same isomorphism classes, each once, though with other representatives
in another order; so the bodies below must stay as they are.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from nbkemeny import Graph
from nbkemeny.graphs import profile


def _refine(adj: Sequence[int], cells: list) -> list:
    # iterate signature splitting until the partition is equitable
    while True:
        cell_masks = []
        for cell in cells:
            mask = 0
            for v in cell:
                mask |= 1 << v
            cell_masks.append(mask)
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                sig = tuple(bin(adj[v] & cm).count("1") for cm in cell_masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups, reverse=True):
                    new_cells.append(groups[sig])
        cells = new_cells
        if not changed:
            return cells


def _certificate(adj: Sequence[int], order: Sequence[int]) -> tuple:
    pos = {v: i for i, v in enumerate(order)}
    rows = [0] * len(order)
    for v, i in pos.items():
        bits = adj[v]
        while bits:
            low = bits & -bits
            rows[i] |= 1 << pos[low.bit_length() - 1]
            bits ^= low
    return tuple(rows)


def _canonical_core(n: int, adj: Sequence[int]) -> tuple:
    """Best (certificate, vertex order) over the refinement search tree."""
    best_cert: Optional[tuple] = None
    best_order: Optional[list] = None

    def descend(cells: list) -> None:
        nonlocal best_cert, best_order
        for i, cell in enumerate(cells):
            if len(cell) == 1:
                continue
            reps = []
            for v in cell:
                # swapping true twins is an automorphism, so one branch
                # per twin class suffices
                if any(adj[u] & ~(1 << v) == adj[v] & ~(1 << u) for u in reps):
                    continue
                reps.append(v)
            for v in reps:
                rest = [w for w in cell if w != v]
                descend(_refine(adj, cells[:i] + [[v], rest] + cells[i + 1:]))
            return
        order = [v for cell in cells for v in cell]
        cert = _certificate(adj, order)
        if best_cert is None or cert > best_cert:
            best_cert, best_order = cert, order

    descend(_refine(adj, [list(range(n))]))
    return best_cert, best_order


def _mask_graph(n: int, adj: Sequence[int]) -> Graph:
    return Graph(n, tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1))


def enumerate_graphs(n: int, min_degree: int = 2,
                     exclude_cycles: bool = True) -> Iterator[Graph]:
    """Every non-edge of every representative is searched; the first
    candidate seen for a certificate represents its class."""
    level = {(0,) * n: (0,) * n}
    while level:
        for adj in sorted(level.values()):
            g = _mask_graph(n, adj)
            if min(g.degrees) < min_degree or not g.is_connected():
                continue
            if exclude_cycles and profile(g).is_cycle:
                continue
            yield g
        nxt = {}
        for adj in level.values():
            for u in range(n):
                for v in range(u + 1, n):
                    if adj[u] >> v & 1:
                        continue
                    cand = list(adj)
                    cand[u] |= 1 << v
                    cand[v] |= 1 << u
                    cert, _ = _canonical_core(n, cand)
                    if cert not in nxt:
                        nxt[cert] = tuple(cand)
        level = nxt
