"""Hypothesis properties of the cross-check rule and of kemeny_triple.

Every test is derandomized, so a run draws the same examples each time and
writes no example database.  The report properties draw fewer examples to
keep their exact solves to about a second.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nbkemeny import from_edge_list, kemeny_triple, parse_graph6, to_graph6
from nbkemeny.engine import DEFAULT_TOL, agree

PROPERTY = settings(derandomize=True, deadline=None, database=None)

fractions = st.fractions(max_denominator=10**6)
scalars = st.one_of(fractions, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def connected_graphs(draw, max_n, min_degree=1):
    """A random spanning tree plus extra edges; each vertex still below
    min_degree is then joined to the lowest vertices it misses."""
    n = draw(st.integers(3, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v) if (u, v) not in edges]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=n) if pairs else st.just([]))
    edges.update(extra)
    for v in range(n):
        for u in range(n):
            if sum(v in e for e in edges) >= min_degree:
                break
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return from_edge_list(n, sorted(edges))


class TestAgree:
    @PROPERTY
    @given(scalars, scalars, st.floats(0, 1))
    def test_symmetric(self, a, b, tol):
        assert agree(a, b, tol) == agree(b, a, tol)

    @PROPERTY
    @given(fractions, fractions, st.floats(0, 1e300))
    def test_distinct_fractions_never_agree(self, a, b, tol):
        assert agree(a, b, tol) == (a == b)
        assert not agree(a, a + Fraction(1, 10**30), tol)


class TestTripleProperties:
    @settings(PROPERTY, max_examples=25)
    @given(st.data())
    def test_exact_k_invariant_under_relabeling(self, data):
        g = data.draw(connected_graphs(8, min_degree=2))
        perm = data.draw(st.permutations(range(g.n)))
        h = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        rep, rel = kemeny_triple(g, mode="exact"), kemeny_triple(h, mode="exact")
        assert not rep.failed and not rel.failed
        assert (rep.k_vertex, rep.k_edge, rep.k_nb) == (rel.k_vertex, rel.k_edge, rel.k_nb)

    @settings(PROPERTY, max_examples=50)
    @given(connected_graphs(40))
    def test_float_report_passes(self, g):
        rep = kemeny_triple(g, mode="float", tol=DEFAULT_TOL)
        assert not rep.failed, rep.to_json()


class TestGraph6:
    @settings(PROPERTY, max_examples=40)
    @given(st.data())
    def test_round_trip_across_the_long_form(self, data):
        # n = 62 is the last short-form order, n = 63 the first long-form one
        n = data.draw(st.integers(60, 65))
        pairs = [(u, v) for v in range(n) for u in range(v)]
        edges = data.draw(st.sets(st.sampled_from(pairs), max_size=3 * n))
        g = from_edge_list(n, sorted(edges))
        text = to_graph6(g)
        assert (text[0] == "~") == (n >= 63)
        assert parse_graph6(text) == g
