"""Seeded graph corpora for the benchmark workloads.

A compute corpus is a sequence of rounds. Every round follows the same fixed
schedule of slots, one slot per graph: a family and its vertex and edge
counts. The seed chooses only the structure a slot leaves open (where the
chords of a random graph go, how a cycle barbell splits its vertices between
path and cycles). So every round has the same family mix and sizes, and
throughput over whole rounds compares across seeds; counts of work such as
linear solves depend on the schedule alone.

compute-exact (mode "exact", 35 graphs a round, arc count 2m from 12 to 64)
    Exact mode spends its time in the Fraction kernels of ``ratmath``, and
    one op costs roughly (2m)^4: 2m = 12 takes about 0.02 s and a barbell at
    2m = 64 about 1.7 s on a 2-core AMD EPYC. The schedule is weighted
    toward small sizes (18 slots at 2m <= 20, 10 at 22..30, 5 at 32..44) so
    that a round takes about 7 s and a 24 s run sees 140 ops, enough for a
    90th percentile with ten samples beyond it. Sparse barbells at 2m = 52
    and 64 keep the largest auto-exact sizes in every round; dense graphs
    stop at 2m = 32, since K_8 (2m = 56) alone took 4 s.
    Mix: 13 random graphs, 13 cycle barbells, 3 complete graphs (K_4..K_6)
    and 6 complete bipartite graphs (K_{2,3}..K_{4,4}).

compute-float (mode "float", 15 graphs a round, 2m from 130 to 420)
    Float mode spends its time in the per-target passage-time solves, about
    N^4 for N states. Random graphs are sparse (average degree about 2.6).
    The barbells have long paths (k between half the vertex count and 100),
    the case in which the absolute cross-check tolerance fires on correct
    answers; they stay in the mix so that the defect shows in the benchmark.
    They start at 2m = 150: of 40 random splits each at 2m = 150, 170 and
    190 none passed the cross-check, while at 2m = 130 25 of 40 did, which
    would make the failed share depend on the seed.
    Mix: 8 random graphs (2m = 130..420) and 7 cycle barbells (2m = 150..290).

Random graphs are a shuffled Hamiltonian cycle plus chords drawn without
replacement from the non-edges, so every vertex has degree at least 2 with
no rejection loop, and at least one chord keeps the graph off a cycle
(whose non-backtracking walk is reducible).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from nbkemeny import Graph, from_edge_list, gen_complete, gen_complete_bipartite, gen_cycle_barbell


@dataclass(frozen=True)
class Entry:
    """One corpus graph with what the reference check needs to know of it."""

    family: str  # "random", "barbell", "complete" or "bipartite"
    params: tuple
    graph: Graph

    @property
    def label(self) -> str:
        return f"{self.family}{self.params}"


# (family, parameters) slots of one round. For "random" the parameters are
# (n, m); for "barbell" the vertex sum s = a + b + k (so n = s - 2 and
# 2m = 2(s - 1)) and, for float, the path cap; for "complete" (n,); for
# "bipartite" (a, b).
EXACT_ROUND = (
    # 2m = 12..20: 18 slots
    ("complete", (4,)), ("bipartite", (2, 3)), ("random", (5, 6)),
    ("random", (5, 7)), ("barbell", (8,)), ("random", (6, 7)),
    ("bipartite", (2, 4)), ("barbell", (9,)), ("random", (6, 8)),
    ("bipartite", (3, 3)), ("barbell", (10,)), ("random", (7, 9)),
    ("random", (6, 9)), ("complete", (5,)), ("bipartite", (2, 5)),
    ("barbell", (11,)), ("random", (8, 10)), ("random", (7, 10)),
    # 2m = 22..30: 10 slots
    ("random", (9, 11)), ("bipartite", (3, 4)), ("barbell", (13,)),
    ("random", (10, 12)), ("random", (10, 13)), ("barbell", (14,)),
    ("random", (12, 14)), ("barbell", (15,)), ("complete", (6,)),
    ("barbell", (16,)),
    # 2m = 32..44: 5 slots
    ("bipartite", (4, 4)), ("barbell", (18,)), ("random", (14, 17)),
    ("barbell", (20,)), ("barbell", (23,)),
    # 2m = 52 and 64: 2 slots
    ("barbell", (27,)), ("barbell", (33,)),
)

FLOAT_ROUND = (
    ("random", (50, 65)), ("barbell", (76, 100)), ("random", (56, 72)),
    ("barbell", (86, 100)), ("random", (62, 80)), ("barbell", (96, 100)),
    ("random", (70, 90)), ("barbell", (106, 100)), ("random", (78, 100)),
    ("barbell", (116, 100)), ("random", (92, 120)), ("barbell", (131, 100)),
    ("random", (116, 150)), ("barbell", (146, 100)), ("random", (160, 210)),
)

ROUNDS = {"compute-exact": EXACT_ROUND, "compute-float": FLOAT_ROUND}


def random_min2(n: int, m: int, rng: random.Random) -> Graph:
    """A graph on n vertices and m > n edges: a shuffled Hamiltonian cycle
    plus m - n chords chosen uniformly among the non-edges."""
    if not n < m <= n * (n - 1) // 2:
        raise ValueError(f"need n < m <= n(n-1)/2, got n={n}, m={m}")
    order = list(range(n))
    rng.shuffle(order)
    cycle = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in cycle]
    return from_edge_list(n, sorted(cycle) + rng.sample(others, m - n))


def barbell_split(s: int, rng: random.Random, path_cap: Optional[int]) -> tuple[int, int, int]:
    """Split the vertex sum s = a + b + k into CB(k, a, b) with k >= 2 and
    a, b >= 3. With a path cap, the path is long: s/2 <= k <= path_cap."""
    if path_cap is None:
        k = rng.randint(2, s - 6)
    else:
        k = rng.randint(min(s // 2, path_cap), min(path_cap, s - 6))
    a = rng.randint(3, s - k - 3)
    return k, a, s - k - a


def make_entry(family: str, params: tuple, rng: random.Random) -> Entry:
    if family == "random":
        return Entry(family, params, random_min2(*params, rng))
    if family == "barbell":
        s, cap = (params[0], None) if len(params) == 1 else params
        k, a, b = barbell_split(s, rng, cap)
        return Entry(family, (k, a, b), gen_cycle_barbell(k, a, b))
    if family == "complete":
        return Entry(family, params, gen_complete(*params))
    if family == "bipartite":
        return Entry(family, params, gen_complete_bipartite(*params))
    raise ValueError(f"unknown family {family!r}")


def build_rounds(workload: str, seed: int, rounds: int) -> list[list[Entry]]:
    """``rounds`` rounds of the workload's schedule, drawn from one
    generator seeded by (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    schedule = ROUNDS[workload]
    return [[make_entry(fam, params, rng) for fam, params in schedule] for _ in range(rounds)]
