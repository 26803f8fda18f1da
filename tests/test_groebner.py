import heapq
import random
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tropfan.groebner as groebner
from tropfan.corpus import PRIME_CORPUS
from tropfan.errors import (
    DimMismatchError,
    NotZeroDimensionalError,
    RequiresHomogeneousError,
    ZeroPolynomialError,
)
from tropfan.fans import (
    cone_from_halfspaces,
    facets_with_normals,
    relative_interior_point,
)
from tropfan.groebner import (
    GroebnerBasis,
    TermOrder,
    groebner_cone,
    groebner_fan,
    initial_ideal,
    is_monomial_free,
    is_unit_basis,
    normal_form,
    product_of_variables,
    reduced_groebner_basis,
    s_polynomial,
    saturate,
    vector_space_dimension,
)
from tropfan.linalg import vec_neg
from tropfan.polynomials import (
    Polynomial,
    homogenize,
    ideal,
    newton_polytope,
    parse_polynomial,
)

from oracles import (
    groebner_route_variety,
    leading_term,
    plucker_ideal,
    reference_is_monomial_free,
    relint_contains,
)


def P(text, vs):
    return parse_polynomial(text, vs)


# The earlier engine, kept as an oracle: every step of the division builds a
# Polynomial, and interreduction loops to a fixpoint before and after the
# pair loop.

def reference_normal_form(p, basis, order):
    leads = [(leading_term(g, order), g) for g in basis if not g.is_zero()]
    remainder = {}
    work = p
    while not work.is_zero():
        lt, lc = leading_term(work, order)
        hit = None
        for (le, ce), g in leads:
            if all(x <= y for x, y in zip(le, lt)):
                hit = (le, ce, g)
                break
        if hit is None:
            remainder[lt] = lc
            work = Polynomial(work.variables,
                              {e: c for e, c in work.terms.items() if e != lt})
            continue
        le, ce, g = hit
        shift = tuple(a - b for a, b in zip(lt, le))
        factor = Polynomial(work.variables, {shift: lc / ce})
        work = work - factor * g
    return Polynomial(p.variables, remainder)


def reference_s_polynomial(f, g, order):
    lf, cf = leading_term(f, order)
    lg, cg = leading_term(g, order)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    mf = Polynomial(f.variables,
                    {tuple(a - b for a, b in zip(lcm, lf)): 1 / cf})
    mg = Polynomial(g.variables,
                    {tuple(a - b for a, b in zip(lcm, lg)): 1 / cg})
    return mf * f - mg * g


def reference_monic(p, order):
    _, c = leading_term(p, order)
    return p.scale(1 / c)


def reference_autoreduce(basis, order):
    basis = [g for g in basis if not g.is_zero()]
    while True:
        changed = False
        kept = []
        for i, g in enumerate(basis):
            reducers = kept + basis[i + 1:]
            r = reference_normal_form(g, reducers, order) if reducers else g
            if r.terms != g.terms:
                changed = True
            if not r.is_zero():
                kept.append(reference_monic(r, order))
        basis = kept
        if not changed:
            break
    basis.sort(key=lambda g: order.key(leading_term(g, order)[0]))
    return basis


def reference_reduced_groebner_basis(spec, order):
    basis = [reference_monic(g, order) for g in spec.generators
             if not g.is_zero()]
    if not basis:
        z = Polynomial.zero(spec.variables)
        return GroebnerBasis(order, (z,), ((0,) * len(spec.variables),))
    basis = reference_autoreduce(basis, order)
    pairs = []
    counter = 0

    def push_pairs(i):
        nonlocal counter
        for j in range(i):
            lf = leading_term(basis[i], order)[0]
            lg = leading_term(basis[j], order)[0]
            lcm_deg = sum(max(a, b) for a, b in zip(lf, lg))
            heapq.heappush(pairs, (lcm_deg, counter, i, j))
            counter += 1

    for i in range(1, len(basis)):
        push_pairs(i)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        lf = leading_term(basis[i], order)[0]
        lg = leading_term(basis[j], order)[0]
        if all(min(a, b) == 0 for a, b in zip(lf, lg)):
            continue
        s = reference_s_polynomial(basis[i], basis[j], order)
        r = reference_normal_form(s, basis, order)
        if not r.is_zero():
            basis.append(reference_monic(r, order))
            push_pairs(len(basis) - 1)
    basis = reference_autoreduce(basis, order)
    leads = tuple(leading_term(g, order)[0] for g in basis)
    return GroebnerBasis(order, tuple(basis), leads)


def reference_groebner_cone(gb):
    """The Gröbner cone from its halfspaces, with its dimension a rank."""
    rows = [tuple(a - b for a, b in zip(e, lead))
            for g, lead in zip(gb.elements, gb.leading_exponents)
            for e in g.terms if e != lead]
    return cone_from_halfspaces(rows, [], len(gb.variables()))


def reference_groebner_fan(spec):
    """The earlier walk: Buchberger from both sides of every facet."""
    start = reduced_groebner_basis(spec, TermOrder())
    seen = {start.marked_key(): (start, reference_groebner_cone(start))}
    queue = [start.marked_key()]
    while queue:
        _, cone = seen[queue.pop(0)]
        for facet, inward in facets_with_normals(cone):
            order = TermOrder((relative_interior_point(facet),
                               vec_neg(inward)))
            neighbor = reduced_groebner_basis(spec, order)
            nk = neighbor.marked_key()
            if nk not in seen:
                seen[nk] = (neighbor, reference_groebner_cone(neighbor))
                queue.append(nk)
    return sorted(seen.values(),
                  key=lambda gc: (gc[1].rays.entries, gc[1].lineality.entries))


def gb_strings(gb):
    return sorted(str(g) for g in gb.elements)


class TestReducedBasis:
    def test_principal_linear(self):
        hv = ("h", "x", "y")
        gb = reduced_groebner_basis(ideal(hv, (P("3*x+3*y+3*h", hv),)),
                                    TermOrder())
        assert gb_strings(gb) == ["h + x + y"]

    def test_line_and_quadric(self):
        vs = ("x", "y", "z")
        spec = ideal(vs, (P("x+y+z", vs), P("x^2+y^2+z^2", vs)))
        gb = reduced_groebner_basis(spec, TermOrder())
        # eliminating x from the quadric by hand gives 2(y^2+yz+z^2)
        assert gb_strings(gb) == ["x + y + z", "y^2 + y*z + z^2"]

    def test_already_a_basis(self):
        xy = ("x", "y")
        spec = ideal(xy, (P("x*y", xy), P("x^2", xy)))
        gb = reduced_groebner_basis(spec, TermOrder())
        assert gb_strings(gb) == ["x*y", "x^2"]

    def test_idempotent(self):
        vs = ("x", "y", "z")
        spec = ideal(vs, (P("x+y+z", vs), P("x^2+y^2+z^2", vs)))
        gb = reduced_groebner_basis(spec, TermOrder())
        again = reduced_groebner_basis(ideal(vs, gb.elements), gb.order)
        assert again.elements == gb.elements

    def test_buchberger_criterion_post_hoc(self):
        vs = ("x", "y", "z")
        spec = ideal(vs, (P("x^2-y*z", vs), P("x*y-z^2", vs), P("y^2-x*z", vs)))
        order = TermOrder()
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
            reduced_groebner_basis(spec, TermOrder(((1, 1),)))
        # nonpositive rows, under which larger degrees lead, are fine on
        # non-homogeneous input
        reduced_groebner_basis(spec, TermOrder(((-1, -1),)))

    def test_weight_rows_must_match_the_ring(self):
        # key zips a row with the exponents, so a short or long row would be
        # cut silently instead of refused
        vs = ("x", "y", "z")
        f, g = P("x+y+z", vs), P("x*y-z^2", vs)
        for row in [(-1,), (-1, 0, 0, 5)]:
            order = TermOrder((row,))
            with pytest.raises(DimMismatchError):
                reduced_groebner_basis(ideal(vs, (f, g)), order)
            with pytest.raises(DimMismatchError):
                normal_form(g, [f], order)
            with pytest.raises(DimMismatchError):
                s_polynomial(f, g, order)

    def test_leading_term_conventions(self):
        xy = ("x", "y")
        f = P("x+y+1", xy)
        lead_min, _ = leading_term(f, TermOrder(((1, 1),)))
        assert lead_min == (0, 0)
        # the max convention's order is the one with negated rows
        lead_max, _ = leading_term(f, TermOrder(((-1, -1),)))
        assert lead_max in {(1, 0), (0, 1)}


class TestRationalWeights:
    """Weight rows are stored scaled to integers; a positive factor must not
    change any comparison."""

    # the max convention's orders are those with negated rows
    @pytest.mark.parametrize("sign", [1, -1], ids=["min", "max"])
    def test_fraction_rows_match_scaled_rows(self, sign):
        from fractions import Fraction
        vs = ("x", "y", "z")
        spec = ideal(vs, (P("x^2-y*z", vs), P("x*y-z^2", vs),
                          P("y^3+x^2*z-2*z^3", vs)))
        half, third = sign * Fraction(1, 2), sign * Fraction(1, 3)
        rational = TermOrder(((half, third, 0), (0, -third, sign)))
        scaled = TermOrder(((3 * sign, 2 * sign, 0), (0, -sign, 3 * sign)))
        assert rational.weight_rows == scaled.weight_rows
        for g in spec.generators:
            assert leading_term(g, rational) == leading_term(g, scaled)
        gb_r = reduced_groebner_basis(spec, rational)
        gb_s = reduced_groebner_basis(spec, scaled)
        assert gb_r.elements == gb_s.elements
        assert gb_r.leading_exponents == gb_s.leading_exponents

    @pytest.mark.parametrize("sign", [1, -1], ids=["min", "max"])
    def test_scaling_keeps_key_order(self, sign):
        from fractions import Fraction
        from itertools import product
        rational = TermOrder(((sign * Fraction(1, 2), sign * Fraction(1, 3),
                               0),))
        exps = list(product(range(3), repeat=3))
        # keys of the stored integer rows order the monomials exactly as
        # the rational dot products do, the smaller weight leading
        want = sorted(exps, key=lambda e: (
            -sign * (Fraction(e[0], 2) + Fraction(e[1], 3)),
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
        order = TermOrder()
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
        gb0 = reduced_groebner_basis(spec, TermOrder())
        assert [str(g) for g in initial_ideal(gb0, (0, 0, 0)).generators] \
            == ["h + x + y"]
        gb1 = reduced_groebner_basis(spec, TermOrder(((0, 1, 1),)))
        assert [str(g) for g in initial_ideal(gb1, (0, 1, 1)).generators] == ["h"]
        gb2 = reduced_groebner_basis(spec, TermOrder(((1, 0, 0),)))
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


# one nonzero generator in 1 to 3 variables, of 1 to 4 terms, with 0 to 2
# zero generators around it
principal_ideals = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.dictionaries(st.tuples(*[st.integers(0, 2)] * n),
                    st.integers(-3, 3).filter(bool), min_size=1, max_size=4),
    st.integers(0, 2), st.integers(0, 2)))


class TestMonomialFree:
    @settings(max_examples=60, deadline=None)
    @given(principal_ideals)
    @example(({(0,): 5}, 0, 0))   # a unit
    @example(({(1, 2): -1}, 1, 1))  # a monomial among zero generators
    def test_principal_ideals_need_no_saturation(self, case):
        terms, zeros_before, zeros_after = case
        vs = tuple("xyz"[:len(next(iter(terms)))])
        zero = Polynomial.zero(vs)
        spec = ideal(vs, [zero] * zeros_before + [Polynomial(vs, terms)]
                     + [zero] * zeros_after)
        with mock.patch.object(groebner, "saturate",
                               wraps=groebner.saturate) as saturate_calls:
            got = is_monomial_free(spec)
        assert not saturate_calls.called
        assert got == reference_is_monomial_free(spec) == (len(terms) > 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.tuples(*[st.integers(0, 2)] * n), st.integers(-3, 3).filter(bool),
        st.lists(st.dictionaries(st.tuples(*[st.integers(0, 2)] * n),
                                 st.integers(-3, 3), max_size=4),
                 min_size=1, max_size=2),
        st.integers(0, 2))))
    @example(((0, 0), 2, [{(1, 0): 1, (0, 1): 1}], 1))  # a unit among others
    def test_a_one_term_generator_needs_no_saturation(self, case):
        exps, coeff, others, at = case
        vs = tuple("xyz"[:len(exps)])
        gens = [Polynomial(vs, terms) for terms in others]
        gens.insert(min(at, len(gens)), Polynomial(vs, {exps: coeff}))
        spec = ideal(vs, gens)
        with mock.patch.object(groebner, "saturate",
                               wraps=groebner.saturate) as saturate_calls:
            got = is_monomial_free(spec)
        assert saturate_calls.call_count == 0
        assert got is False
        assert reference_is_monomial_free(spec) is False

    def test_binomial(self):
        xy = ("x", "y")
        assert is_monomial_free(ideal(xy, (P("x+y", xy),)))

    def test_single_variable(self):
        hv = ("h", "x", "y")
        assert not is_monomial_free(ideal(hv, (P("h", hv),)))

    def test_initial_at_constant_corner(self):
        hv = ("h", "x", "y")
        spec = ideal(hv, (P("x+y+h", hv),))
        gb = reduced_groebner_basis(spec, TermOrder(((0, 1, 1),)))
        assert not is_monomial_free(initial_ideal(gb, (0, 1, 1)))


class TestDimensions:
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
            if not relint_contains(cone, w):
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
            interiors = sum(1 for c in cones if relint_contains(c, w))
            assert closures >= 1
            assert interiors == 1

    def test_groebner_cone_contains_its_weight(self):
        hv = ("h", "x", "y")
        spec = ideal(hv, (P("x+y+h", hv),))
        gb = reduced_groebner_basis(spec, TermOrder(((3, 1, 2),)))
        assert groebner_cone(gb).contains((3, 1, 2))


@st.composite
def ideals_and_orders(draw):
    """2-4 variables, at most 3 generators of degree at most 3 with small
    integer coefficients, and 0-2 integer weight rows with entries of
    either sign. An order that is not a well-order, one with a positive
    weight, needs homogeneous input, so each generator is then cut to its
    top-degree part."""
    n = draw(st.integers(2, 4))
    variables = tuple(f"x{i}" for i in range(n))
    monomial = st.lists(st.integers(0, n - 1), max_size=3).map(
        lambda idx: tuple(idx.count(i) for i in range(n)))
    term = st.tuples(monomial, st.integers(-3, 3).filter(bool))
    polys = st.lists(term, min_size=1, max_size=4).map(
        lambda terms: Polynomial(variables, dict(terms)))
    gens = draw(st.lists(polys, min_size=1, max_size=3))
    row = st.tuples(*[st.integers(-3, 3)] * n)
    order = TermOrder(tuple(draw(st.lists(row, max_size=2))))
    if any(x > 0 for r in order.weight_rows for x in r):
        gens = [top_degree_part(g) for g in gens]
    return ideal(variables, tuple(gens)), order, draw(polys)


def top_degree_part(g):
    d = g.total_degree()
    return Polynomial(g.variables,
                      {e: c for e, c in g.terms.items() if sum(e) == d})


class TestAgainstReferenceEngine:
    """The dict-based engine against the earlier Polynomial-based one."""

    @settings(max_examples=150, deadline=None)
    @given(ideals_and_orders())
    @example((ideal(("x", "y"), (P("x^2-y^2", ("x", "y")),
                                 P("x*y-y^2", ("x", "y")))),
              TermOrder(((1, -1),)), P("x^3+x*y+1", ("x", "y"))))
    # copies and multiples of one generator must not annihilate each other
    @example((ideal(("x", "y"), (P("x^2+x*y-y^2", ("x", "y")),
                                 P("3*x^2+3*x*y-3*y^2", ("x", "y")),
                                 P("x*y^2", ("x", "y")))),
              TermOrder(((-2, -1),)), P("x^2*y", ("x", "y"))))
    # leads of -1 are negated, and coefficients stay int
    @example((ideal(("x", "y"), (P("-x^2+y^2", ("x", "y")),
                                 P("-x*y+2*y^2-y", ("x", "y")))),
              TermOrder(), P("-x^3+x*y", ("x", "y"))))
    # leads of 2 and 1/2 divide, and the runs pass through Fraction
    @example((ideal(("x", "y"), (P("2*x-3*y", ("x", "y")),
                                 P("x^2/2+y", ("x", "y")))),
              TermOrder(((-1, -2),)), P("x^2*y/3-2*y^2+x", ("x", "y"))))
    def test_same_reduced_basis_and_normal_forms(self, case):
        spec, order, p = case
        gb = reduced_groebner_basis(spec, order)
        ref = reference_reduced_groebner_basis(spec, order)
        assert gb.elements == ref.elements
        assert gb.leading_exponents == ref.leading_exponents
        assert gb.order == order
        for basis in (gb.elements, spec.generators):
            assert normal_form(p, basis, order) == \
                reference_normal_form(p, basis, order)
        nonzero = [g for g in gb.elements if not g.is_zero()]
        for f in nonzero:
            assert s_polynomial(f, p, order) == \
                reference_s_polynomial(f, p, order)

    def test_zero_polynomial_has_no_s_polynomial(self):
        xy = ("x", "y")
        with pytest.raises(ZeroPolynomialError):
            s_polynomial(P("x", xy), P("0", xy), TermOrder())


class TestSympyOracle:
    """An independent engine: sympy's reduced grevlex basis, made monic.
    TermOrder() is grevlex with the first variable largest, as
    sympy orders its generators."""

    @settings(max_examples=60, deadline=None)
    @given(ideals_and_orders())
    def test_grevlex_basis_matches_sympy(self, case):
        sympy = pytest.importorskip("sympy")
        spec, _, _ = case
        gens = sympy.symbols(spec.variables)
        exprs = [sympy.Poly.from_dict({e: sympy.Rational(c.numerator,
                                                         c.denominator)
                                       for e, c in g.terms.items()},
                                      gens, domain="QQ").as_expr()
                 for g in spec.generators]
        want = set()
        for q in sympy.groebner(exprs, *gens, order="grevlex",
                                domain="QQ").polys:
            terms = q.terms(order="grevlex")
            lc = terms[0][1]
            want.add(frozenset((m, Fraction(int((c / lc).p), int((c / lc).q)))
                               for m, c in terms))
        gb = reduced_groebner_basis(spec, TermOrder())
        got = {frozenset(g.terms.items()) for g in gb.elements}
        assert got == want


def _fan_cases():
    cases = [(e.name, e.variables, e.generators) for e in PRIME_CORPUS]
    cases += [
        ("linear5", "abcde", ("a+b+c+d+e", "a+2*b+3*c+5*d+7*e")),
        ("curve3", "xyz", ("x+y+z+1", "x*y*z-1")),
        ("curve4", "xyzw", ("x+y+z+w+1", "x*y*z*w-1")),
        ("twisted_cubic", "xyz", ("y-x^2", "z-x^3", "x*z-y^2")),
    ]
    return cases


def _homogenized(case):
    _, variables, generators = case
    variables = tuple(variables)
    return homogenize(ideal(variables,
                            tuple(P(g, variables) for g in generators)))


def _walk_cases():
    """(name, spec maker): the homogenized _fan_cases(), and G(2,5), whose
    Plücker ideal is homogeneous already."""
    cases = [(c[0], partial(_homogenized, c)) for c in _fan_cases()]
    return cases + [("G(2,5)", plucker_ideal)]


class TestFacetsCrossedOnce:
    @pytest.mark.parametrize("make", [pytest.param(make, id=name)
                                      for name, make in _walk_cases()])
    def test_same_walk_as_crossing_every_facet_twice(self, make):
        spec = make()
        got = groebner_fan(spec)
        want = reference_groebner_fan(spec)
        keys = [gb.marked_key() for gb, _ in got]
        assert keys == [gb.marked_key() for gb, _ in want]
        assert [cone for _, cone in got] == [cone for _, cone in want]
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("name, runs", [
        ("linear5", 10), ("curve4", 20), ("space_conic", 16), ("curve3", 12),
    ])
    def test_one_buchberger_run_per_cone(self, name, runs, monkeypatch):
        """Runs per walk were 31, 47, 27 and 22 while every facet took one,
        the number of facets plus the start."""
        case = next(c for c in _fan_cases() if c[0] == name)
        spec = _homogenized(case)
        count = 0
        engine = groebner.reduced_groebner_basis

        def counting(*args):
            nonlocal count
            count += 1
            return engine(*args)

        monkeypatch.setattr(groebner, "reduced_groebner_basis", counting)
        fan = groebner_fan(spec)
        assert count == runs == len(fan)
        assert not any(is_unit_basis(gb) for gb, _ in fan)

    @pytest.mark.parametrize("name, cones", [("linear5", 10),
                                             ("space_conic", 16)])
    def test_crossing_builds_no_facet(self, name, cones, facet_counts):
        """Tripwire: a facet is crossed from its key and inequality alone."""
        case = next(c for c in _fan_cases() if c[0] == name)
        assert len(groebner_fan(_homogenized(case))) == cones
        assert facet_counts == {"keyed": cones, "built": 0}


def assert_clean(p):
    """p equals what the checking constructor makes of its terms, and has
    int exponents of the ring's length and nonzero Fraction coefficients."""
    assert type(p.variables) is tuple
    assert p == Polynomial(p.variables, dict(p.terms))
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == len(p.variables)
        assert all(type(k) is int and k >= 0 for k in e)
        assert type(c) is Fraction and c != 0


class TestEngineBuiltPolynomials:
    """The engine builds its results from term dicts it keeps clean, with no
    check (Polynomial._from_terms), and keeps integral coefficients int
    inside a run. Each result is clean (assert_clean)."""

    def test_corpus(self, monkeypatch):
        import sys

        built = {}
        make = Polynomial._from_terms.__func__

        def recording(cls, variables, terms):
            p = make(cls, variables, terms)
            caller = sys._getframe(1)
            while caller.f_code.co_name.startswith("<"):  # a comprehension
                caller = caller.f_back
            built.setdefault(caller.f_code.co_name, []).append(p)
            return p

        monkeypatch.setattr(Polynomial, "_from_terms", classmethod(recording))
        for entry in PRIME_CORPUS:
            spec = entry.ideal()
            groebner_route_variety(spec)
            g = spec.generators[-1]
            x = Polynomial.variable(spec.variables, spec.variables[0])
            normal_form(g * x + x, spec.generators, TermOrder())
            s_polynomial(g, x, TermOrder())
        # parsing the corpus runs the arithmetic: sums, products, negations
        assert set(built) == {"reduced_groebner_basis", "saturate",
                              "initial_form", "_multiplicity_from_initial",
                              "normal_form", "s_polynomial",
                              "__add__", "__mul__", "__neg__"}
        for p in (p for ps in built.values() for p in ps):
            assert_clean(p)

    def test_linear5(self):
        # leads 2, 3, 5 and 7 divide into Fractions, whose sums may become
        # integral again inside a run
        vs = tuple("abcde")
        f, g = P("a+b+c+d+e", vs), P("a+2*b+3*c+5*d+7*e", vs)
        spec = ideal(vs, (f, g))
        x = Polynomial.variable(vs, "e")
        results = list(saturate(spec, product_of_variables(vs)).generators)
        for order in (TermOrder(), TermOrder(((7, 5, 3, 2, 1),))):
            gb = reduced_groebner_basis(spec, order)
            results += gb.elements
            for basis in (spec.generators, gb.elements):
                results.append(normal_form(g * g * x + f * x, basis, order))
            results += [s_polynomial(f, g, order), s_polynomial(g, x, order),
                        s_polynomial(g * x, f * f, order)]
        for p in results:
            assert_clean(p)
