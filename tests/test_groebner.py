import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropfan.errors import (
    NotZeroDimensionalError,
    RequiresHomogeneousError,
    ZeroPolynomialError,
)
from tropfan.fans import cone_from_halfspaces
from tropfan.groebner import (
    TermOrder,
    groebner_cone,
    groebner_fan,
    initial_ideal,
    is_monomial_free,
    krull_dimension,
    leading_term,
    normal_form,
    reduced_groebner_basis,
    s_polynomial,
    saturate,
    vector_space_dimension,
)
from tropfan.polynomials import homogenize, ideal, newton_polytope, parse_polynomial


def P(text, vs):
    return parse_polynomial(text, vs)


def gb_strings(gb):
    return sorted(str(g) for g in gb.elements)


class TestReducedBasis:
    def test_principal_linear(self):
        hv = ("h", "x", "y")
        gb = reduced_groebner_basis(ideal(hv, (P("3*x+3*y+3*h", hv),)),
                                    TermOrder((), "min"))
        assert gb_strings(gb) == ["h + x + y"]

    def test_line_and_quadric(self):
        vs = ("x", "y", "z")
        spec = ideal(vs, (P("x+y+z", vs), P("x^2+y^2+z^2", vs)))
        gb = reduced_groebner_basis(spec, TermOrder((), "min"))
        # eliminating x from the quadric by hand gives 2(y^2+yz+z^2)
        assert gb_strings(gb) == ["x + y + z", "y^2 + y*z + z^2"]

    def test_already_a_basis(self):
        xy = ("x", "y")
        spec = ideal(xy, (P("x*y", xy), P("x^2", xy)))
        gb = reduced_groebner_basis(spec, TermOrder((), "min"))
        assert gb_strings(gb) == ["x*y", "x^2"]

    def test_idempotent(self):
        vs = ("x", "y", "z")
        spec = ideal(vs, (P("x+y+z", vs), P("x^2+y^2+z^2", vs)))
        gb = reduced_groebner_basis(spec, TermOrder((), "min"))
        again = reduced_groebner_basis(ideal(vs, gb.elements), gb.order)
        assert again.elements == gb.elements

    def test_buchberger_criterion_post_hoc(self):
        vs = ("x", "y", "z")
        spec = ideal(vs, (P("x^2-y*z", vs), P("x*y-z^2", vs), P("y^2-x*z", vs)))
        order = TermOrder((), "max")
        gb = reduced_groebner_basis(spec, order)
        elems = list(gb.elements)
        for i in range(len(elems)):
            for j in range(i):
                s = s_polynomial(elems[i], elems[j], order)
                assert normal_form(s, elems, order).is_zero()

    def test_homogeneity_precondition(self):
        xy = ("x", "y")
        spec = ideal(xy, (P("x+y+1", xy),))
        with pytest.raises(RequiresHomogeneousError):
            reduced_groebner_basis(spec, TermOrder(((1, 1),), "min"))
        # nonnegative effective rows are fine on non-homogeneous input
        reduced_groebner_basis(spec, TermOrder(((1, 1),), "max"))

    def test_leading_term_conventions(self):
        xy = ("x", "y")
        f = P("x+y+1", xy)
        lead_min, _ = leading_term(f, TermOrder(((1, 1),), "min"))
        assert lead_min == (0, 0)
        lead_max, _ = leading_term(f, TermOrder(((1, 1),), "max"))
        assert lead_max in {(1, 0), (0, 1)}


class TestRationalWeights:
    """Weight rows are stored scaled to integers; a positive factor must not
    change any comparison."""

    @pytest.mark.parametrize("convention", ["min", "max"])
    def test_fraction_rows_match_scaled_rows(self, convention):
        from fractions import Fraction
        vs = ("x", "y", "z")
        spec = ideal(vs, (P("x^2-y*z", vs), P("x*y-z^2", vs),
                          P("y^3+x^2*z-2*z^3", vs)))
        half, third = Fraction(1, 2), Fraction(1, 3)
        rational = TermOrder(((half, third, 0), (0, -third, 1)), convention)
        scaled = TermOrder(((3, 2, 0), (0, -1, 3)), convention)
        assert rational.weight_rows == scaled.weight_rows
        for g in spec.generators:
            assert leading_term(g, rational) == leading_term(g, scaled)
        gb_r = reduced_groebner_basis(spec, rational)
        gb_s = reduced_groebner_basis(spec, scaled)
        assert gb_r.elements == gb_s.elements
        assert gb_r.leading_exponents == gb_s.leading_exponents

    @pytest.mark.parametrize("convention", ["min", "max"])
    def test_scaling_keeps_key_order(self, convention):
        from fractions import Fraction
        from itertools import product
        rational = TermOrder(((Fraction(1, 2), Fraction(1, 3), 0),),
                             convention)
        exps = list(product(range(3), repeat=3))
        # keys of the stored integer rows order the monomials exactly as
        # the rational dot products do
        sign = -1 if convention == "min" else 1
        want = sorted(exps, key=lambda e: (
            sign * (Fraction(e[0], 2) + Fraction(e[1], 3)),
            sum(e)) + tuple(-x for x in reversed(e)))
        assert sorted(exps, key=rational.key) == want


tiny_polys = st.lists(
    st.lists(
        st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                  st.integers(-3, 3).filter(lambda c: c != 0)),
        min_size=1, max_size=3),
    min_size=1, max_size=2)


class TestBuchbergerFuzz:
    @settings(max_examples=40, deadline=None)
    @given(tiny_polys)
    def test_criterion_and_idempotence(self, raw):
        from tropfan.polynomials import Polynomial
        xy = ("x", "y")
        gens = [Polynomial(xy, dict(terms)) for terms in raw]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            return
        order = TermOrder((), "max")
        gb = reduced_groebner_basis(ideal(xy, tuple(gens)), order)
        elems = [g for g in gb.elements if not g.is_zero()]
        for i in range(len(elems)):
            for j in range(i):
                s = s_polynomial(elems[i], elems[j], order)
                assert normal_form(s, elems, order).is_zero()
        if elems:
            again = reduced_groebner_basis(ideal(xy, tuple(elems)), order)
            assert again.elements == gb.elements
        # each original generator reduces to zero against the basis
        for g in gens:
            assert normal_form(g, elems, order).is_zero() or not elems


class TestInitialIdeal:
    def test_examples(self):
        hv = ("h", "x", "y")
        spec = ideal(hv, (P("x+y+h", hv),))
        gb0 = reduced_groebner_basis(spec, TermOrder((), "min"))
        assert [str(g) for g in initial_ideal(gb0, (0, 0, 0)).generators] \
            == ["h + x + y"]
        gb1 = reduced_groebner_basis(spec, TermOrder(((0, 1, 1),), "min"))
        assert [str(g) for g in initial_ideal(gb1, (0, 1, 1)).generators] == ["h"]
        gb2 = reduced_groebner_basis(spec, TermOrder(((1, 0, 0),), "min"))
        assert [str(g) for g in initial_ideal(gb2, (1, 0, 0)).generators] \
            == ["x + y"]


class TestSaturate:
    def test_monomial_factor(self):
        xy = ("x", "y")
        out = saturate(ideal(xy, (P("x*y", xy),)), P("y", xy))
        assert [str(g) for g in out.generators] == ["x"]

    def test_already_saturated(self):
        xy = ("x", "y")
        out = saturate(ideal(xy, (P("x", xy),)), P("y", xy))
        assert [str(g) for g in out.generators] == ["x"]

    def test_factored_power(self):
        xy = ("x", "y")
        out = saturate(ideal(xy, (P("x^2*y-x^2", xy),)), P("x", xy))
        assert [str(g) for g in out.generators] == ["y - 1"]

    def test_zero_divisor_rejected(self):
        xy = ("x", "y")
        with pytest.raises(ZeroPolynomialError):
            saturate(ideal(xy, (P("x", xy),)), P("0", xy))


class TestMonomialFree:
    def test_binomial(self):
        xy = ("x", "y")
        assert is_monomial_free(ideal(xy, (P("x+y", xy),)))

    def test_single_variable(self):
        hv = ("h", "x", "y")
        assert not is_monomial_free(ideal(hv, (P("h", hv),)))

    def test_initial_at_constant_corner(self):
        hv = ("h", "x", "y")
        spec = ideal(hv, (P("x+y+h", hv),))
        gb = reduced_groebner_basis(spec, TermOrder(((0, 1, 1),), "min"))
        assert not is_monomial_free(initial_ideal(gb, (0, 1, 1)))


class TestDimensions:
    def test_krull(self):
        xy = ("x", "y")
        assert krull_dimension(ideal(xy, (P("x+y+1", xy),))) == 1
        assert krull_dimension(ideal(xy, (P("x*y", xy),))) == 1
        assert krull_dimension(ideal(xy, (P("x", xy), P("y", xy)))) == 0
        assert krull_dimension(ideal(xy, (P("1", xy),))) == -1

    def test_vector_space_dimension(self):
        x = ("x",)
        assert vector_space_dimension(ideal(x, (P("x^2", x),))) == 2
        xy = ("x", "y")
        spec = ideal(xy, (P("x^2", xy), P("x*y", xy), P("y^2", xy)))
        assert vector_space_dimension(spec) == 3
        y = ("y",)
        assert vector_space_dimension(ideal(y, (P("y^2+y+1", y),))) == 2

    def test_not_zero_dimensional(self):
        xy = ("x", "y")
        with pytest.raises(NotZeroDimensionalError):
            vector_space_dimension(ideal(xy, (P("x", xy),)))


def normal_fan_cones(f):
    """Oracle: vertex cones of the Newton polytope (min convention)."""
    n = len(f.variables)
    supp = f.support()
    cones = set()
    for v in newton_polytope(f):
        rows = [tuple(u[i] - v[i] for i in range(n)) for u in supp if u != v]
        c = cone_from_halfspaces(rows, [], n)
        cones.add((c.rays.entries, c.lineality.entries))
    return cones


class TestGroebnerFan:
    def test_principal_linear_matches_normal_fan(self):
        hv = ("h", "x", "y")
        f = P("x+y+h", hv)
        gf = groebner_fan(ideal(hv, (f,)))
        assert len(gf) == 3
        got = {(c.rays.entries, c.lineality.entries) for _, c in gf}
        assert got == normal_fan_cones(f)

    def test_single_monomial_generator(self):
        xy = ("x", "y")
        gf = groebner_fan(ideal(xy, (P("x", xy),)))
        assert len(gf) == 1
        cone = gf[0][1]
        assert cone.rays.ncols == 0
        assert cone.dim == 2  # the whole plane

    def test_quadric_matches_linear_support(self):
        hv = ("h", "x", "y", "z")
        fq = P("x^2+y^2+z^2", hv)
        fl = P("x+y+z", hv)
        got_q = {(c.rays.entries, c.lineality.entries)
                 for _, c in groebner_fan(ideal(hv, (fq,)))}
        got_l = {(c.rays.entries, c.lineality.entries)
                 for _, c in groebner_fan(ideal(hv, (fl,)))}
        assert len(got_q) == 3
        assert got_q == got_l
        assert got_q == normal_fan_cones(fq)

    def test_requires_homogeneous(self):
        xy = ("x", "y")
        with pytest.raises(RequiresHomogeneousError):
            groebner_fan(ideal(xy, (P("x+y+1", xy),)))

    def test_initial_ideal_matches_markings(self):
        # inside a maximal cone the initial ideal is the leading monomials
        vs = ("x", "y", "z")
        spec = homogenize(ideal(vs, (P("x+y+z", vs), P("x^2+y^2+z^2", vs))))
        for gb, cone in groebner_fan(spec):
            from tropfan.fans import relative_interior_point
            w = relative_interior_point(cone)
            if not cone.relint_contains(w):
                continue
            inw = initial_ideal(gb, w)
            got = {g.support()[0] for g in inw.generators
                   if g.num_terms() == 1}
            assert set(gb.leading_exponents) == got

    def test_tiling_sampled(self):
        vs = ("x", "y", "z")
        spec = homogenize(ideal(vs, (P("x+y+z", vs), P("x^2+y^2+z^2", vs))))
        cones = [c for _, c in groebner_fan(spec)]
        rng = random.Random(11)
        for _ in range(200):
            w = tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(4))
            closures = sum(1 for c in cones if c.contains(w))
            interiors = sum(1 for c in cones if c.relint_contains(w))
            assert closures >= 1
            assert interiors == 1

    def test_groebner_cone_contains_its_weight(self):
        hv = ("h", "x", "y")
        spec = ideal(hv, (P("x+y+h", hv),))
        gb = reduced_groebner_basis(spec, TermOrder(((3, 1, 2),), "min"))
        assert groebner_cone(gb).contains((3, 1, 2))
