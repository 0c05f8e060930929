"""Closed forms against the engine and frozen oracle values."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nbkemeny import (
    BarbellParams,
    FormulaError,
    Spectrum,
    barbell_argmax,
    barbell_edge_max,
    barbell_kemeny,
    barbell_nb_charpoly,
    barbell_nb_max,
    biregular_bounds,
    biregular_edge_kemeny,
    biregular_nb_kemeny,
    biregular_profile,
    build_matrix,
    from_edge_list,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_cycle_barbell,
    gen_necklace,
    gen_path,
    kemeny_mfpt,
    kemeny_spectrum,
    kemeny_triple,
    necklace_kemeny,
    regular_bounds,
    regular_edge_kemeny,
    regular_nb_kemeny,
    regular_nb_spectrum,
    regular_profile,
)
import nbkemeny.formulas
from nbkemeny.ratmath import charpoly_pencil

from conftest import random_cubic

F = Fraction


def exact_kemeny(g, kind):
    return kemeny_mfpt(build_matrix(g, kind, exact=True))[0]


class TestRegularProfile:
    def test_rejects_irregular(self):
        with pytest.raises(FormulaError):
            regular_profile(gen_complete_bipartite(2, 3))

    def test_rejects_degree_two(self):
        with pytest.raises(FormulaError):
            regular_profile(gen_cycle(5))

    def test_rejects_disconnected(self):
        g = from_edge_list(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                               (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)])
        with pytest.raises(FormulaError):
            regular_profile(g)

    def test_edge_count(self, petersen):
        assert regular_profile(petersen).m == 15


class TestRegularForms:
    # frozen oracle values, see test_engine.FROZEN
    CASES = {
        "K4": (gen_complete(4), F(41, 4), F(133, 12)),
        "K5": (gen_complete(5), F(91, 5), F(367, 20)),
        "K33": (gen_complete_bipartite(3, 3), F(33, 2), F(33, 2)),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_edge_value(self, name):
        g, ke, _ = self.CASES[name]
        assert regular_edge_kemeny(regular_profile(g)) == pytest.approx(
            float(ke), abs=1e-10)

    @pytest.mark.parametrize("name", list(CASES))
    def test_nb_value_exact_from_exact_edge(self, name):
        g, ke, knb = self.CASES[name]
        assert regular_nb_kemeny(regular_profile(g), ke) == knb

    def test_petersen_and_cube_match_engine(self, petersen, cube3):
        for g in (petersen, cube3):
            p = regular_profile(g)
            ke = regular_edge_kemeny(p)
            assert ke == pytest.approx(float(exact_kemeny(g, "edge")), abs=1e-10)
            knb = regular_nb_kemeny(p, ke)
            assert knb == pytest.approx(
                float(exact_kemeny(g, "non-backtracking")), abs=1e-10)

    def test_random_cubics_match_engine(self):
        rng = random.Random(99)
        for n in (8, 10, 12):
            g = random_cubic(n, rng)
            p = regular_profile(g)
            ke = regular_edge_kemeny(p)
            knb = regular_nb_kemeny(p, ke)
            assert ke == pytest.approx(
                kemeny_spectrum(build_matrix(g, "edge")), abs=1e-8)
            assert knb == pytest.approx(
                kemeny_spectrum(build_matrix(g, "non-backtracking")), abs=1e-8)

    def test_nb_spectrum_matches_eigensolver(self, petersen):
        p = regular_profile(petersen)
        want = regular_nb_spectrum(p)
        got = np.array(Spectrum.of_chain(
            build_matrix(petersen, "non-backtracking")).values)
        # sort on rounded keys; exact ties in the real part would otherwise
        # let eigensolver noise reorder the conjugate pairs
        key = lambda z: (round(z.real, 9), round(z.imag, 9))
        want = sorted(want.tolist(), key=key)
        got = sorted(got.tolist(), key=key)
        assert max(abs(w - g) for w, g in zip(want, got)) < 1e-8

    def test_nb_spectrum_size(self, cube3):
        p = regular_profile(cube3)
        assert regular_nb_spectrum(p).shape == (2 * p.m,)


class TestRegularBounds:
    def test_small_complete_graphs_are_exceptions(self):
        for g in (gen_complete(4), gen_complete(5)):
            p = regular_profile(g)
            ke = exact_kemeny(g, "edge")
            knb = exact_kemeny(g, "non-backtracking")
            by_name = {c.name: c for c in regular_bounds(p, ke, knb)}
            diff = by_name["edge-exceeds-nb"]
            assert diff.known_exception and not diff.satisfied

    def test_k33_is_the_equality_exception(self):
        g = gen_complete_bipartite(3, 3)
        p = regular_profile(g)
        ke = exact_kemeny(g, "edge")
        knb = exact_kemeny(g, "non-backtracking")
        by_name = {c.name: c for c in regular_bounds(p, ke, knb)}
        diff = by_name["edge-exceeds-nb"]
        assert diff.known_exception
        assert diff.margin == 0 and not diff.satisfied

    def test_petersen_satisfies_everything(self, petersen):
        p = regular_profile(petersen)
        ke = exact_kemeny(petersen, "edge")
        knb = exact_kemeny(petersen, "non-backtracking")
        checks = regular_bounds(p, ke, knb)
        assert all(c.satisfied for c in checks)
        assert not any(c.known_exception for c in checks)
        names = {c.name for c in checks}
        # Petersen is Ramanujan (lambda_2 = 1 <= 2 sqrt 2)
        assert "ramanujan-edge-upper" in names

    def test_ratio_window(self, petersen, cube3):
        for g in (petersen, cube3):
            p = regular_profile(g)
            ke = exact_kemeny(g, "edge")
            knb = exact_kemeny(g, "non-backtracking")
            ratio = knb / ke
            assert 1 - F(2, p.d) < ratio < 1

    def test_edge_floor(self, petersen):
        p = regular_profile(petersen)
        assert exact_kemeny(petersen, "edge") >= p.n * p.d - 2


class TestNecklace:
    def test_smallest_chain_values(self):
        # the n = 10 chain in lowest terms: 20.6, 40.6, 31.2
        assert necklace_kemeny(10) == (F(3296, 160), F(6496, 160), F(14976, 480))

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_engine(self, k):
        g = gen_necklace(k)
        kv, ke, knb = necklace_kemeny(4 * k + 2)
        assert kemeny_spectrum(build_matrix(g, "vertex")) == pytest.approx(
            float(kv), abs=1e-8)
        assert kemeny_spectrum(build_matrix(g, "edge")) == pytest.approx(
            float(ke), abs=1e-8)
        assert kemeny_spectrum(build_matrix(g, "non-backtracking")) == pytest.approx(
            float(knb), abs=1e-8)

    def test_domain(self):
        for bad in (6, 9, 12, 16):
            with pytest.raises(FormulaError):
                necklace_kemeny(bad)

    def test_ratio_decreases_toward_one_third(self):
        ratios = []
        for k in range(2, 13):
            _, ke, knb = necklace_kemeny(4 * k + 2)
            ratios.append(knb / ke)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert all(r > F(1, 3) for r in ratios)


class TestBiregular:
    def test_profile_orientation(self):
        p = biregular_profile(gen_complete_bipartite(5, 2))
        assert (p.c, p.d, p.r, p.s) == (2, 5, 5, 2)

    def test_rejects_nonbipartite(self, petersen):
        with pytest.raises(FormulaError):
            biregular_profile(petersen)

    @pytest.mark.parametrize("c,d", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4)])
    def test_complete_bipartite_match_engine(self, c, d):
        g = gen_complete_bipartite(c, d)
        p = biregular_profile(g)
        ke_exact = exact_kemeny(g, "edge")
        assert biregular_edge_kemeny(p) == pytest.approx(float(ke_exact), abs=1e-8)
        # feeding the exact edge value through keeps the nb value exact
        assert biregular_nb_kemeny(p, ke_exact) == exact_kemeny(
            g, "non-backtracking")

    def test_bireg23_matches_engine(self, bireg23):
        p = biregular_profile(bireg23)
        ke_exact = exact_kemeny(bireg23, "edge")
        assert ke_exact == F(55, 2)
        assert biregular_edge_kemeny(p) == pytest.approx(27.5, abs=1e-10)
        assert biregular_nb_kemeny(p, ke_exact) == F(23)

    def test_degree_two_both_sides_rejected(self):
        p = biregular_profile(gen_cycle(4))
        with pytest.raises(FormulaError):
            biregular_nb_kemeny(p, F(1))

    @pytest.mark.parametrize("g", [gen_complete_bipartite(1, 3), gen_path(3)],
                             ids=["K13", "P3"])
    def test_degree_one_side_rejected(self, g):
        # a star has leaves: its non-backtracking walk does not exist
        p = biregular_profile(g)
        with pytest.raises(FormulaError, match="needs min degree >= 2"):
            biregular_nb_kemeny(p, biregular_edge_kemeny(p))


class TestBiregularBounds:
    def _checks(self, g):
        p = biregular_profile(g)
        ke = exact_kemeny(g, "edge")
        knb = exact_kemeny(g, "non-backtracking")
        return {c.name: c for c in biregular_bounds(p, ke, knb)}

    def test_complete_bipartite_margin_is_exactly_zero(self):
        for c, d in ((2, 3), (3, 3), (3, 4)):
            by_name = self._checks(gen_complete_bipartite(c, d))
            assert by_name["edge-at-least-2m-minus-3/2"].margin == 0

    def test_bireg23_margin_strictly_positive(self, bireg23):
        by_name = self._checks(bireg23)
        assert by_name["edge-at-least-2m-minus-3/2"].margin > 0

    def test_named_exceptions(self):
        for c, d in ((2, 3), (2, 4), (2, 5)):
            by_name = self._checks(gen_complete_bipartite(c, d))
            diff = by_name["edge-exceeds-nb"]
            assert diff.known_exception and not diff.satisfied
        diff = self._checks(gen_complete_bipartite(3, 3))["edge-exceeds-nb"]
        assert diff.known_exception and diff.margin == 0

    def test_k34_is_not_an_exception(self):
        by_name = self._checks(gen_complete_bipartite(3, 4))
        assert by_name["edge-exceeds-nb"].satisfied
        assert not by_name["edge-exceeds-nb"].known_exception

    def test_ratio_window(self, bireg23):
        by_name = self._checks(bireg23)
        assert by_name["nb-edge-ratio-lower"].satisfied
        assert by_name["nb-edge-ratio-upper"].satisfied


class TestBarbell:
    def test_frozen_values(self):
        assert barbell_kemeny(BarbellParams(2, 3, 3)) == (
            F(323, 42), F(659, 42), F(241, 14))
        assert barbell_kemeny(BarbellParams(3, 4, 6)) == (
            F(49, 2), F(75, 2), F(88, 3))

    def test_merged_vertex_case(self):
        kv, ke, knb = barbell_kemeny(BarbellParams(1, 3, 3))
        assert knb == F(49, 4)
        g = gen_cycle_barbell(1, 3, 3)
        assert exact_kemeny(g, "non-backtracking") == F(49, 4)
        assert exact_kemeny(g, "vertex") == kv
        assert exact_kemeny(g, "edge") == ke
        for a in range(3, 9):
            for b in range(3, 9):
                report = kemeny_triple(gen_cycle_barbell(1, a, b), mode="exact")
                assert not report.failed
                assert barbell_kemeny(BarbellParams(1, a, b)) == (
                    report.k_vertex, report.k_edge, report.k_nb), (a, b)

    def test_shift_identity(self):
        for k, a, b in ((1, 3, 4), (2, 5, 3), (4, 6, 6)):
            kv, ke, _ = barbell_kemeny(BarbellParams(k, a, b))
            assert ke - kv == a + b + k

    def test_matches_engine(self):
        rng = random.Random(4)
        for _ in range(5):
            k = rng.randrange(2, 6)
            a = rng.randrange(3, 8)
            b = rng.randrange(3, 8)
            g = gen_cycle_barbell(k, a, b)
            kv, ke, knb = barbell_kemeny(BarbellParams(k, a, b))
            assert kemeny_spectrum(build_matrix(g, "vertex")) == pytest.approx(
                float(kv), abs=1e-8)
            assert kemeny_spectrum(build_matrix(g, "edge")) == pytest.approx(
                float(ke), abs=1e-8)
            assert kemeny_spectrum(
                build_matrix(g, "non-backtracking")) == pytest.approx(
                float(knb), abs=1e-8)


def assert_proportional_to_pencil(k, a, b):
    g = gen_cycle_barbell(k, a, b)
    P = build_matrix(g, "non-backtracking", exact=True)
    pencil = charpoly_pencil(P.data.tolist())
    form = barbell_nb_charpoly(BarbellParams(k, a, b))
    assert len(pencil) == len(form)
    # same polynomial up to the pencil's determinant scale
    lead_p, lead_f = pencil[-1], form[-1]
    assert all(cp * lead_f == cf * lead_p
               for cp, cf in zip(pencil, form)), (k, a, b)


class TestBarbellCharpoly:
    def test_proportional_to_pencil(self):
        for k, a, b in ((2, 3, 3), (3, 4, 6), (2, 4, 5)):
            assert_proportional_to_pencil(k, a, b)

    def test_kemeny_from_formula_polynomial(self):
        from nbkemeny import kemeny_from_charpoly
        coeffs = barbell_nb_charpoly(BarbellParams(3, 4, 6))
        assert kemeny_from_charpoly(coeffs) == F(88, 3)

    def test_k1_matches_pencil(self):
        # the cycles share a degree-4 vertex: branching 3, constant 4
        for a, b in ((3, 3), (3, 5), (4, 7), (6, 6)):
            assert_proportional_to_pencil(1, a, b)


def test_formulas_imports_no_engine_layer():
    # the closed forms are the reference the engine is checked against, so
    # formulas may not import a module that runs an engine route, even
    # lazily inside a function
    source = Path(nbkemeny.formulas.__file__).read_text()
    banned = {"engine", "chains", "census"}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            assert not banned & set(name.split(".")), (node.lineno, name)


class TestBarbellExtremes:
    def test_displayed_formulas_at_n30(self):
        params, value = barbell_edge_max(30)
        assert params == BarbellParams(26, 3, 3)
        assert value == F(63371, 186)
        params, value = barbell_nb_max(30)
        assert params == BarbellParams(2, 15, 15)
        assert value == F(10322, 124)

    def test_odd_n(self):
        params, value = barbell_nb_max(11)
        assert params == BarbellParams(2, 6, 5)
        assert value == F(11 * 121 + 14 * 11 + 1, 48)

    @pytest.mark.parametrize("n", [10, 13, 17, 24])
    def test_argmax_agrees_with_formulas(self, n):
        winners, top = barbell_argmax(n, "edge")
        params, value = barbell_edge_max(n)
        assert params in winners and top == value
        winners, top = barbell_argmax(n, "nb")
        params, value = barbell_nb_max(n)
        assert params in winners and top == value

    def test_degenerate_balance_is_exactly_flat(self):
        # with a + b = 8(k-1) the edge value does not depend on the split
        k = 3
        total = 8 * (k - 1)
        values = {barbell_kemeny(BarbellParams(k, total - b, b))[1]
                  for b in range(3, total // 2 + 1)}
        assert len(values) == 1

    def test_objective_validation(self):
        with pytest.raises(FormulaError):
            barbell_argmax(12, "vertex")
        with pytest.raises(FormulaError):
            barbell_argmax(5, "edge")
