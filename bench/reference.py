"""Reference values the benchmark checks outputs against, computed outside
the timed region.

Cycle barbells use the exact closed forms of ``formulas`` (k >= 2, where
they do not call the engine). Complete graphs use the regular closed forms
and complete bipartite graphs the biregular ones, both from the adjacency
spectrum. Random graphs get the vertex value from ``networkx`` and the edge
value from the shift identity K_e = K_v + 2m - n; their non-backtracking
value has no outside reference and rests on the report's own cross-check.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional, Union

from nbkemeny import BarbellParams, formulas

from corpus import Entry

Value = Union[Fraction, float]

# Relative agreement demanded of a float value (or of any value against a
# float reference). Float routes agree to about 1e-11 relative at these
# sizes and the report prints 12 significant digits; a wrong formula or
# solve is off by far more.
REL_TOL = 1e-8

# census_summary(census_nb_vs_edge(8), 8): 7441 graphs and count 3 as in the
# census acceptance test; the one equality case, graph6 "GS`aaO", was recorded
# from the census and is pinned so that any change to it shows
CENSUS_N8 = {"n": 8, "total": 7441, "count_nb_ge_e": 3, "equal_list": ["GS`aaO"]}


def expected(entry: Entry) -> dict[str, Optional[Value]]:
    """Reference Kemeny values by walk name, None where there is none."""
    g = entry.graph
    shift = 2 * g.m - g.n
    if entry.family == "barbell":
        k_v, k_e, k_nb = formulas.barbell_kemeny(BarbellParams(*entry.params))
        return {"vertex": k_v, "edge": k_e, "non-backtracking": k_nb}
    if entry.family == "complete":
        p = formulas.regular_profile(g)
        k_e = formulas.regular_edge_kemeny(p)
        return {"vertex": k_e - shift, "edge": k_e,
                "non-backtracking": float(formulas.regular_nb_kemeny(p, k_e))}
    if entry.family == "bipartite":
        p = formulas.biregular_profile(g)
        k_e = formulas.biregular_edge_kemeny(p)
        return {"vertex": k_e - shift, "edge": k_e,
                "non-backtracking": float(formulas.biregular_nb_kemeny(p, k_e))}
    if entry.family == "random":
        import networkx as nx

        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges)
        k_v = nx.kemeny_constant(G)
        return {"vertex": k_v, "edge": k_v + shift, "non-backtracking": None}
    raise ValueError(f"no reference for family {entry.family!r}")


def _parse(x) -> Value:
    if isinstance(x, str):
        num, _, den = x.partition("/")
        return Fraction(int(num), int(den or 1))
    return float(x)


def _agrees(got: Value, want: Value) -> bool:
    if isinstance(got, Fraction) and isinstance(want, Fraction):
        return got == want
    return abs(float(got) - float(want)) <= REL_TOL * max(1.0, abs(float(want)))


def mismatches(report_json: str, want: dict[str, Optional[Value]]) -> list[str]:
    """Walks whose printed value differs from the reference."""
    got = json.loads(report_json)["kemeny"]
    bad = []
    for walk, ref in want.items():
        if ref is None:
            continue
        value = got.get(walk)
        if value is None or not _agrees(_parse(value), ref):
            bad.append(f"{walk}: got {value}, want {ref}")
    return bad
