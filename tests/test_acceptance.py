"""Package-level checks, one test per shipping criterion.

Each test does its whole sweep, then registers a single pass/fail line
that the terminal summary prints.  Runtime budgets are asserted where a
criterion has one.
"""

import functools
import random
import time
from fractions import Fraction

from nbkemeny import (
    BarbellParams,
    barbell_argmax,
    barbell_edge_max,
    barbell_kemeny,
    barbell_nb_charpoly,
    barbell_nb_max,
    barbell_sweep,
    biregular_edge_kemeny,
    biregular_nb_kemeny,
    biregular_profile,
    build_matrix,
    canonical_graph6,
    census_nb_vs_edge,
    enumerate_graphs,
    from_edge_list,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_cycle_barbell,
    gen_necklace,
    gen_path,
    kemeny_charpoly,
    kemeny_mfpt,
    kemeny_resistance,
    kemeny_spectrum,
    necklace_kemeny,
    profile,
    regular_edge_kemeny,
    regular_nb_kemeny,
    regular_profile,
    to_graph6,
)
from nbkemeny.ratmath import charpoly_pencil

from conftest import (
    ACCEPTANCE_LINES,
    CUBE_EDGES,
    BIREG23_EDGES,
    PETERSEN_EDGES,
    random_connected,
    random_cubic,
    random_min2,
)

F = Fraction


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.monotonic()
            try:
                detail = fn()
            except BaseException as exc:
                ACCEPTANCE_LINES[num] = (
                    f"criterion {num} {name}: FAIL ({type(exc).__name__}: {exc})")
                raise
            dt = time.monotonic() - t0
            ACCEPTANCE_LINES[num] = (
                f"criterion {num} {name}: PASS ({detail}; {dt:.1f}s)")
        return wrapper
    return deco


def float_kemeny(g, kind):
    return kemeny_spectrum(build_matrix(g, kind, exact=False))


def exact_kemeny(g, kind):
    return kemeny_mfpt(build_matrix(g, kind, exact=True))[0]


def named_families():
    return {
        "K4": gen_complete(4),
        "K5": gen_complete(5),
        "K(2,3)": gen_complete_bipartite(2, 3),
        "K(2,4)": gen_complete_bipartite(2, 4),
        "K(2,5)": gen_complete_bipartite(2, 5),
        "K(3,3)": gen_complete_bipartite(3, 3),
        "K(3,4)": gen_complete_bipartite(3, 4),
        "petersen": from_edge_list(10, PETERSEN_EDGES),
        "3-cube": from_edge_list(8, CUBE_EDGES),
        "bireg23": from_edge_list(10, BIREG23_EDGES),
        "C8": gen_cycle(8),
        "P6": gen_path(6),
        "necklace-2": gen_necklace(2),
        "necklace-3": gen_necklace(3),
        "necklace-4": gen_necklace(4),
        "necklace-5": gen_necklace(5),
        "CB(1,3,3)": gen_cycle_barbell(1, 3, 3),
        "CB(2,3,3)": gen_cycle_barbell(2, 3, 3),
        "CB(3,4,6)": gen_cycle_barbell(3, 4, 6),
        "CB(2,15,15)": gen_cycle_barbell(2, 15, 15),
    }


@criterion("01", "identity-suite")
def test_identity_suite():
    t0 = time.monotonic()
    rng = random.Random(20260816)
    graphs = [random_connected(rng.randrange(4, 13), rng,
                               extra_edges=rng.randrange(0, 12))
              for _ in range(200)]
    worst = 0.0
    for g in list(named_families().values()) + graphs:
        kv = float_kemeny(g, "vertex")
        ke = float_kemeny(g, "edge")
        worst = max(worst, abs(ke - kv - (2 * g.m - g.n)))
        assert worst < 1e-10, (g.n, g.m, worst)
    exact_zero = 0
    named_small = [g for g in named_families().values() if 2 * g.m <= 40]
    for g in named_small + graphs[:25]:
        kv = exact_kemeny(g, "vertex")
        ke = exact_kemeny(g, "edge")
        assert ke - kv == 2 * g.m - g.n
        exact_zero += 1
    dt = time.monotonic() - t0
    assert dt < 30, f"identity suite took {dt:.1f}s"
    return (f"200 random + {len(named_families())} named graphs, "
            f"max |residual| {worst:.1e}, {exact_zero} exact zeros")


def small_connected_corpus():
    corpus = [from_edge_list(2, [(0, 1)]),
              from_edge_list(3, [(0, 1), (1, 2)]),
              from_edge_list(3, [(0, 1), (1, 2), (0, 2)])]
    for n in range(4, 8):
        corpus.extend(enumerate_graphs(n))
    return corpus


@criterion("02", "route-agreement")
def test_route_agreement():
    t0 = time.monotonic()
    corpus = small_connected_corpus()
    worst, nb_count = 0.0, 0
    for g in corpus:
        for kind in ("vertex", "edge"):
            P = build_matrix(g, kind, exact=False)
            vals = [kemeny_mfpt(P)[0], kemeny_spectrum(P), kemeny_charpoly(P)]
            if kind == "vertex":
                vals.append(kemeny_resistance(g))
            spread = max(vals) - min(vals)
            worst = max(worst, spread)
            assert spread < 1e-8, (g.edges, kind, spread)
        # the non-backtracking walk needs min degree 2 and is reducible
        # on pure cycles, so those stay out of this leg
        if min(g.degrees) >= 2 and not profile(g).is_cycle:
            P = build_matrix(g, "non-backtracking", exact=False)
            vals = [kemeny_mfpt(P)[0], kemeny_spectrum(P), kemeny_charpoly(P)]
            spread = max(vals) - min(vals)
            worst = max(worst, spread)
            assert spread < 1e-8, (g.edges, "nb", spread)
            nb_count += 1
    dt = time.monotonic() - t0
    assert dt < 120, f"route agreement took {dt:.1f}s"
    return (f"{len(corpus)} graphs n<=7, {nb_count} nb legs, "
            f"worst route spread {worst:.1e}")


@functools.lru_cache(maxsize=1)
def regular_census():
    rows = []
    for n in range(4, 9):
        for g in enumerate_graphs(n):
            if min(g.degrees) >= 3 and len(set(g.degrees)) == 1:
                ke = float_kemeny(g, "edge")
                knb = float_kemeny(g, "non-backtracking")
                rows.append((canonical_graph6(g), g.degrees[0], ke, knb))
    return rows


@criterion("03", "regular-forms")
def test_regular_forms():
    t0 = time.monotonic()
    rng = random.Random(31)
    cases = [gen_complete(4), gen_complete(5),
             from_edge_list(10, PETERSEN_EDGES), from_edge_list(8, CUBE_EDGES)]
    cases += [random_cubic(n, rng) for n in (8, 10, 12, 14) for _ in range(5)]
    worst = 0.0
    for g in cases:
        p = regular_profile(g)
        ke = regular_edge_kemeny(p)
        knb = regular_nb_kemeny(p, ke)
        worst = max(worst, abs(ke - float_kemeny(g, "edge")),
                    abs(knb - float_kemeny(g, "non-backtracking")))
        assert worst < 1e-8, (g.n, worst)

    strict = {cert for cert, d, ke, knb in regular_census()
              if knb > ke + 1e-9}
    equal = {cert for cert, d, ke, knb in regular_census()
             if abs(knb - ke) <= 1e-9}
    assert strict == {canonical_graph6(gen_complete(4)),
                      canonical_graph6(gen_complete(5))}
    assert equal == {canonical_graph6(gen_complete_bipartite(3, 3))}
    dt = time.monotonic() - t0
    assert dt < 60, f"regular forms took {dt:.1f}s"
    return (f"24 form checks worst {worst:.1e}; census of "
            f"{len(regular_census())} regular graphs n<=8 gives "
            "strict {K4, K5} and equality {K33}")


def biregular_corpus():
    return [gen_complete_bipartite(2, 3), gen_complete_bipartite(2, 4),
            gen_complete_bipartite(2, 5), gen_complete_bipartite(3, 3),
            gen_complete_bipartite(3, 4), from_edge_list(10, BIREG23_EDGES)]


@criterion("04", "ratio-windows")
def test_ratio_windows():
    exceptions = {canonical_graph6(gen_complete(4)),
                  canonical_graph6(gen_complete(5)),
                  canonical_graph6(gen_complete_bipartite(3, 3))}
    reg_checked = 0
    for cert, d, ke, knb in regular_census():
        if cert in exceptions:
            continue
        ratio = knb / ke
        assert 1 - 2 / d < ratio < 1, (cert, d, ratio)
        reg_checked += 1

    bireg_exceptions = {canonical_graph6(gen_complete_bipartite(c, d))
                        for c, d in ((2, 3), (2, 4), (2, 5), (3, 3))}
    bireg_checked = 0
    for g in biregular_corpus():
        p = biregular_profile(g)
        ratio = (float_kemeny(g, "non-backtracking") / float_kemeny(g, "edge"))
        if canonical_graph6(g) in bireg_exceptions:
            assert ratio >= 1 - 1e-12, (p.c, p.d, ratio)
            continue
        assert 1 - (p.c + p.d) / (p.c * p.d) <= ratio < 1, (p.c, p.d, ratio)
        bireg_checked += 1
    return (f"window holds on {reg_checked} regular non-exceptions and "
            f"{bireg_checked} biregular graphs; 7 named exceptions sit "
            "outside as expected")


@criterion("05", "biregular-forms")
def test_biregular_forms():
    worst = 0.0
    for g in biregular_corpus():
        p = biregular_profile(g)
        ke = biregular_edge_kemeny(p)
        knb = biregular_nb_kemeny(p, ke)
        worst = max(worst, abs(ke - float_kemeny(g, "edge")),
                    abs(knb - float_kemeny(g, "non-backtracking")))
        assert worst < 1e-8, (p.c, p.d, worst)
        # the edge-space floor 2m - 3/2 is tight exactly on complete
        # bipartite graphs
        margin = exact_kemeny(g, "edge") - (2 * g.m - F(3, 2))
        if p.r == p.d and p.s == p.c:
            assert margin == 0, (p.c, p.d, margin)
        else:
            assert margin > 0, (p.c, p.d, margin)
    return f"6 graphs, worst form error {worst:.1e}, floor margins exact"


@criterion("06", "necklace")
def test_necklace():
    assert necklace_kemeny(10) == (F(3296, 160), F(6496, 160), F(14976, 480))
    worst = 0.0
    for k in range(2, 6):
        g = gen_necklace(k)
        kv, ke, knb = necklace_kemeny(4 * k + 2)
        worst = max(worst,
                    abs(float_kemeny(g, "vertex") - kv),
                    abs(float_kemeny(g, "edge") - ke),
                    abs(float_kemeny(g, "non-backtracking") - knb))
        assert worst < 1e-8, (k, worst)
    ratios = []
    for k in range(2, 13):
        _, ke, knb = necklace_kemeny(4 * k + 2)
        ratios.append(knb / ke)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(r > F(1, 3) for r in ratios)
    # the gap above 1/3 shrinks from 0.435 to 0.116 over k = 2..12
    assert ratios[-1] - F(1, 3) < (ratios[0] - F(1, 3)) / 3
    return (f"n=10 triple exact, engine agreement k=2..5 worst {worst:.1e}, "
            f"ratio falls {float(ratios[0]):.4f} -> {float(ratios[-1]):.4f}")


@criterion("07", "barbells")
def test_barbells():
    worst, form_count = 0.0, 0
    for k in range(1, 13):
        for b in range(3, 16):
            for a in range(b, 16):
                if a + b + k - 2 > 16:
                    continue
                g = gen_cycle_barbell(k, a, b)
                kv, ke, knb = barbell_kemeny(BarbellParams(k, a, b))
                worst = max(worst,
                            abs(float_kemeny(g, "vertex") - kv),
                            abs(float_kemeny(g, "edge") - ke),
                            abs(float_kemeny(g, "non-backtracking") - knb))
                assert worst < 1e-8, (k, a, b, worst)
                form_count += 1

    poly_count = 0
    for k in range(1, 16):
        for b in range(3, 19):
            for a in range(b, 19):
                if 2 * (a + b + k - 1) > 40:
                    continue
                g = gen_cycle_barbell(k, a, b)
                P = build_matrix(g, "non-backtracking", exact=True)
                pencil = charpoly_pencil(P.data.tolist())
                form = barbell_nb_charpoly(BarbellParams(k, a, b))
                assert len(pencil) == len(form)
                lead_p, lead_f = pencil[-1], form[-1]
                assert all(cp * lead_f == cf * lead_p
                           for cp, cf in zip(pencil, form)), (k, a, b)
                poly_count += 1

    assert barbell_kemeny(BarbellParams(3, 4, 6))[2] == F(88, 3)
    assert exact_kemeny(gen_cycle_barbell(3, 4, 6),
                        "non-backtracking") == F(88, 3)
    return (f"{form_count} triples n<=16 worst {worst:.1e}, "
            f"{poly_count} exact charpoly matches 2m<=40, CB(3,4,6)=88/3")


@criterion("08", "maximizers")
def test_maximizers():
    t0 = time.monotonic()
    for n in range(10, 31):
        winners, top = barbell_argmax(n, "edge")
        params, value = barbell_edge_max(n)
        assert params == BarbellParams(n - 4, 3, 3)
        assert value == F(2 * n**3 + 12 * n**2 - 51 * n + 101, 6 * (n + 1))
        assert params in winners and top == value, n

        winners, top = barbell_argmax(n, "nb")
        params, value = barbell_nb_max(n)
        assert params == BarbellParams(2, (n + 1) // 2, n // 2)
        bump = 2 if n % 2 == 0 else 1
        assert value == F(11 * n**2 + 14 * n + bump, 4 * (n + 1))
        assert params in winners and top == value, n

    # a + b = 8(k-1) makes the edge value independent of the split
    k = 3
    flat = {barbell_kemeny(BarbellParams(k, 16 - b, b))[1]
            for b in range(3, 9)}
    assert len(flat) == 1
    dt = time.monotonic() - t0
    assert dt < 60, f"maximizer scans took {dt:.1f}s"
    return "scans n=10..30 match both displayed formulas, split tie exact"


@criterion("09", "census")
def test_census():
    t0 = time.monotonic()
    want = {4: 2, 5: 10, 6: 18, 7: 7}
    for n, count in want.items():
        assert census_nb_vs_edge(n).count == count, n
    t_small = time.monotonic() - t0
    assert t_small < 300, f"n<=7 census took {t_small:.1f}s"

    t1 = time.monotonic()
    assert census_nb_vs_edge(8).count == 3
    t_eight = time.monotonic() - t1
    assert t_eight < 1800, f"n=8 census took {t_eight:.1f}s"

    rng = random.Random(910)
    externals = {}
    for n in (9, 10):
        lines = [to_graph6(random_min2(n, rng)) for _ in range(80)]
        result = census_nb_vs_edge(lines)
        assert len(result.records) == 80 and not result.skipped
        externals[n] = result.count
        assert result.count == 0, (n, result.count)
    return (f"counts (2,10,18,7,3) for n=4..8 "
            f"(n<=7 {t_small:.1f}s, n=8 {t_eight:.1f}s); "
            f"80-graph corpora at n=9,10 both report 0")


@criterion("10", "sweep")
def test_sweep():
    rows = barbell_sweep(30)
    assert [r.k for r in rows] == list(range(2, 27, 2))
    ke = [r.k_e for r in rows]
    knb = [r.k_nb for r in rows]
    # the path regime dominates the edge walk throughout, so its maximum
    # sits at the longest path; the non-backtracking walk wants the
    # largest cycles instead
    assert all(a < b for a, b in zip(ke, ke[1:]))
    assert all(a > b for a, b in zip(knb, knb[1:]))
    assert all(r.k_e > r.k_nb for r in rows)
    assert ke[-1] == F(63371, 186) and rows[-1].k == 26
    assert knb[0] == F(10322, 124) and rows[0].k == 2
    return ("k_e max 63371/186 at k=26, k_nb max 10322/124 at k=2, "
            "monotone in opposite directions across the sweep")
