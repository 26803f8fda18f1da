from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropfan.errors import PolynomialParseError, ZeroPolynomialError
from tropfan.polynomials import (
    MAX_TERM_PAIRS,
    IdealSpec,
    Polynomial,
    edge_lattice_length,
    homogenize,
    ideal,
    initial_form,
    newton_polytope,
    parse_polynomial,
)


def P(text, vs):
    return parse_polynomial(text, vs)


class TestParser:
    def test_line(self):
        p = P("x+y+1", ("x", "y"))
        assert p.num_terms() == 3
        assert p.coefficient((1, 0)) == 1
        assert p.coefficient((0, 1)) == 1
        assert p.coefficient((0, 0)) == 1

    def test_quadric(self):
        p = P("x^2+y^2+z^2", ("x", "y", "z"))
        assert p.total_degree() == 2
        assert p.num_terms() == 3

    def test_expansion_to_zero(self):
        p = P("(x+y)^2 - x^2 - y^2 - 2*x*y", ("x", "y"))
        assert p.is_zero()

    def test_rational_coefficients(self):
        p = P("3/2*x - 1/2", ("x",))
        assert p.coefficient((1,)) == Fraction(3, 2)
        assert p.coefficient((0,)) == Fraction(-1, 2)

    def test_implicit_coefficient_product(self):
        assert P("3x", ("x",)) == P("3*x", ("x",))

    def test_unknown_variable(self):
        with pytest.raises(PolynomialParseError) as e:
            P("x+zz", ("x", "y"))
        assert e.value.position == 3

    def test_adjacent_variables_rejected(self):
        with pytest.raises(PolynomialParseError):
            P("x y", ("x", "y"))

    def test_negative_exponent(self):
        with pytest.raises(PolynomialParseError):
            P("x^-1", ("x",))

    def test_division_by_variable(self):
        with pytest.raises(PolynomialParseError):
            P("x/y", ("x", "y"))

    def test_division_by_zero(self):
        with pytest.raises(PolynomialParseError):
            P("x/0", ("x",))

    def test_unbalanced_paren(self):
        with pytest.raises(PolynomialParseError):
            P("(x+y", ("x", "y"))

    def test_unary_minus(self):
        assert P("-x + -y", ("x", "y")) == -P("x+y", ("x", "y"))

    @pytest.mark.parametrize("k", range(10))
    def test_power_is_the_repeated_product(self, k):
        base = P("x+2*y-1", ("x", "y"))
        assert P(f"(x+2*y-1)^{k}", ("x", "y")) == base ** k

    def test_power_squares_only_while_bits_remain(self, monkeypatch):
        # 20 = 10100 in binary: four squarings and one product at most
        # 2 * floor(log2 20) + 1; the base was once squared again after the
        # last bit, a 969 x 969 product whose result was dropped
        p = P("x+y+z+1", ("x", "y", "z"))
        products = []
        original = Polynomial.__mul__
        monkeypatch.setattr(Polynomial, "__mul__",
                            lambda f, g: products.append(1) or original(f, g))
        assert p ** 0 == Polynomial.constant(p.variables, 1)
        assert p ** 1 == p
        assert products == []
        assert (p ** 20).num_terms() == 1771  # binomial(23, 3)
        assert len(products) <= 2 * 4 + 1

    def test_products_bounded_before_multiplying(self):
        # 100 * 100 term pairs is the bound itself; 101 * 100 is refused at
        # the '*', before any term pair is formed
        vs = ("x", "y")
        assert MAX_TERM_PAIRS == 10_000
        assert P("(x+1)^99*(y+1)^99", vs).num_terms() == 10_000
        with pytest.raises(PolynomialParseError, match="101 and 100") as e:
            P("(x+1)^100*(y+1)^99", vs)
        assert e.value.position == 10

    def test_powers_bounded_before_multiplying(self):
        # a power squares and multiplies, each product checked: the first
        # one past the bound is refused at the '^'
        with pytest.raises(PolynomialParseError) as e:
            P("2*(x+1)^99999999", ("x",))
        assert e.value.position == 8
        assert P("x^99999999", ("x",)).terms == {(99999999,): 1}


small_polys = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)),
              st.integers(-5, 5).filter(lambda c: c != 0)),
    min_size=1, max_size=5)


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(small_polys)
    def test_print_parse_identity(self, terms):
        p = Polynomial(("x", "y"), dict(terms))
        if p.is_zero():
            return
        assert P(str(p), ("x", "y")) == p


class TestHomogenize:
    def test_line(self):
        spec = homogenize(ideal(("x", "y"), (P("x+y+1", ("x", "y")),)))
        assert spec.variables == ("h", "x", "y")
        assert spec.generators[0] == P("x+y+h", ("h", "x", "y"))

    def test_already_homogeneous(self):
        vs = ("x", "y", "z")
        spec = homogenize(ideal(vs, (P("x+y+z", vs), P("x^2+y^2+z^2", vs))))
        hv = ("h",) + vs
        assert spec.generators == (P("x+y+z", hv), P("x^2+y^2+z^2", hv))

    def test_mixed_degrees(self):
        spec = homogenize(ideal(("x", "y"), (P("x^2+y", ("x", "y")),)))
        assert spec.generators[0] == P("x^2+y*h", ("h", "x", "y"))

    def test_every_output_homogeneous(self):
        vs = ("x", "y")
        spec = homogenize(ideal(vs, (P("x^3+y+2", vs), P("x*y-1", vs))))
        assert all(g.is_homogeneous() for g in spec.generators)

    def test_fresh_name_when_h_taken(self):
        vs = ("h", "x")
        spec = homogenize(ideal(vs, (P("h+x+1", vs),)))
        assert spec.variables[0] not in vs


def segment_membership_2d(p, points):
    """A point of a 2-D configuration lies in the hull iff it is on a
    segment between two configuration points (enough for desk examples)."""
    for i, a in enumerate(points):
        if a == p:
            continue
        for b in points[i + 1:]:
            if b == p:
                continue
            # p = a + t (b - a) with t in [0, 1]
            dx, dy = b[0] - a[0], b[1] - a[1]
            rx, ry = p[0] - a[0], p[1] - a[1]
            if dx * ry - dy * rx != 0:
                continue
            if dx != 0:
                t = Fraction(rx, dx)
            elif dy != 0:
                t = Fraction(ry, dy)
            else:
                continue
            if 0 <= t <= 1:
                return True
    return False


class TestNewtonPolytope:
    def test_line(self):
        f = P("x+y+1", ("x", "y"))
        assert set(newton_polytope(f)) == {(1, 0), (0, 1), (0, 0)}

    def test_quadric(self):
        f = P("x^2+y^2+z^2", ("x", "y", "z"))
        assert set(newton_polytope(f)) == {(2, 0, 0), (0, 2, 0), (0, 0, 2)}

    def test_midpoint_dropped(self):
        f = P("x^2 + x*y + y^2", ("x", "y"))
        verts = newton_polytope(f)
        assert set(verts) == {(2, 0), (0, 2)}
        # independent hull oracle agrees on every support point
        supp = f.support()
        for pt in supp:
            others = [q for q in supp if q != pt]
            assert (pt not in verts) == segment_membership_2d(pt, others)

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomialError):
            newton_polytope(Polynomial.zero(("x",)))


class TestInitialForm:
    def test_all_terms(self):
        f = P("x+y+1", ("x", "y"))
        assert initial_form(f, (0, 0), "min") == f

    def test_two_terms(self):
        f = P("x+y+1", ("x", "y"))
        assert initial_form(f, (-1, -1), "min") == P("x+y", ("x", "y"))

    def test_constant_wins(self):
        f = P("x+y+1", ("x", "y"))
        assert initial_form(f, (1, 1), "min") == P("1", ("x", "y"))

    def test_unknown_convention_refused(self):
        # as tropical_evaluate refuses it, not read as "max"
        f = P("x+y+1", ("x", "y"))
        with pytest.raises(ValueError, match="convention must be"):
            initial_form(f, (1, 1), "mim")

    @settings(max_examples=60, deadline=None)
    @given(small_polys, st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    def test_min_max_duality(self, terms, w):
        f = Polynomial(("x", "y"), dict(terms))
        if f.is_zero():
            return
        neg = tuple(-x for x in w)
        assert initial_form(f, w, "min") == initial_form(f, neg, "max")

    def test_vertices_have_separating_weights(self):
        f = P("x^2 + x*y + y^2 + 1", ("x", "y"))
        grid = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]
        for v in newton_polytope(f):
            hit = False
            for w in grid:
                form = initial_form(f, w, "min")
                if form.num_terms() == 1 and form.support()[0] == v:
                    hit = True
                    break
            assert hit, v


class TestLatticeLength:
    def test_examples(self):
        assert edge_lattice_length((2, 0), (0, 2)) == 2
        assert edge_lattice_length((1, 0), (0, 1)) == 1
        assert edge_lattice_length((3, 0, 0), (0, 0, 3)) == 3


class TestIdealSpec:
    def test_requires_generators(self):
        with pytest.raises(ValueError):
            IdealSpec(("x",), ())

    def test_ring_consistency(self):
        from tropfan.errors import DimMismatchError
        with pytest.raises(DimMismatchError):
            IdealSpec(("x",), (P("x+y", ("x", "y")),))
