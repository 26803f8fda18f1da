import hashlib
import random
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tropfan.cli import dumps_canonical
from tropfan.cycles import (
    TropicalCycle,
    cycle_to_dict,
    is_balanced,
    make_cycle,
    swap_convention,
    weighted_from_cones,
)
from tropfan.errors import (
    ConventionMismatchError,
    DimMismatchError,
    MonomialHypersurfaceError,
    NotPureError,
    TropfanError,
    UnitIdealError,
    ZeroIdealError,
)
from tropfan.fans import (
    common_refinement,
    cone_from_generators,
    cone_from_halfspaces,
    fan_dim,
    fan_from_cones,
    intersect,
    relative_interior_point,
    support_contains,
)
from tropfan.groebner import (
    TermOrder,
    product_of_variables,
    reduced_groebner_basis,
    saturate,
    vector_space_dimension,
)
from tropfan.linalg import IntMatrix, _echelon_kernel, dot, rational_rank
from tropfan.polynomials import (
    IdealSpec,
    Polynomial,
    homogenize,
    ideal,
    newton_polytope,
    parse_polynomial,
)
from tropfan.tropical import (
    _displacement_verdict,
    _maximal_kept_faces,
    _multiplicity_from_initial,
    _separated_pairs,
    _solve_shift,
    _validated,
    is_tropical_basis,
    stable_intersection,
    tropical_evaluate,
    tropical_hypersurface,
    tropical_prevariety,
    tropical_variety,
)

from oracles import (
    PLUCKER_PAIRS,
    displacement_difference,
    groebner_route_variety,
    multiplicity_at,
    optimum_attained_twice,
    phylogenetic_trees,
    plucker_ideal,
    reference_common_refinement,
    reference_cone_feasible,
    reference_dd,
    reference_fan_cone,
    reference_is_balanced,
    reference_is_tropical_basis,
    reference_kept_faces,
    reference_multiplicity_from_initial,
    reference_newton_polytope,
    reference_stable_intersection,
    reference_tropical_hypersurface,
)


def P(text, vs):
    return parse_polynomial(text, vs)


XY = ("x", "y")
XYZ = ("x", "y", "z")


class TestEvaluate:
    def test_examples(self):
        f = P("x+y+1", XY)
        assert tropical_evaluate(f, (2, 3)) == 0
        assert tropical_evaluate(f, (-1, -4)) == -4
        assert tropical_evaluate(P("x", XY), (3, 0)) == 3
        assert tropical_evaluate(P("x", XY), (3, 0), "max") == 3

    def test_rational_point(self):
        f = P("x+y+1", XY)
        assert tropical_evaluate(f, (Fraction(1, 2), 3)) == 0
        assert tropical_evaluate(f, (Fraction(-1, 2), 3)) == Fraction(-1, 2)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            tropical_evaluate(P("x+y", XY), (1, 2, 3))


class TestHypersurface:
    def test_tropical_line(self):
        c = tropical_hypersurface(P("x+y+1", XY))
        assert c.fan.rays.columns() == [(-1, -1), (0, 1), (1, 0)]
        assert c.fan.lineality.ncols == 0
        assert c.multiplicities == (1, 1, 1)
        assert is_balanced(c)

    def test_quadric(self):
        c = tropical_hypersurface(P("x^2+y^2+z^2", XYZ))
        assert len(c.fan.maximal_cones) == 3
        assert c.fan.lineality.columns() == [(1, 1, 1)]
        assert c.multiplicities == (2, 2, 2)
        assert fan_dim(c.fan) == 2

    def test_linear_same_fan_as_quadric(self):
        cl = tropical_hypersurface(P("x+y+z", XYZ))
        cq = tropical_hypersurface(P("x^2+y^2+z^2", XYZ))
        assert cl.fan == cq.fan
        assert cl.multiplicities == (1, 1, 1)

    def test_monomial_rejected(self):
        with pytest.raises(MonomialHypersurfaceError):
            tropical_hypersurface(P("3*x^2*y", XY))

    def test_convention_duality(self):
        for text, vs in [("x+y+1", XY), ("x^2+y^2+z^2", XYZ),
                         ("x*y-1", XY), ("y^2-x^3+x", XY)]:
            mn = tropical_hypersurface(P(text, vs), "min")
            mx = tropical_hypersurface(P(text, vs), "max")
            assert mx == swap_convention(mn)

    def test_membership_oracle_sampled(self):
        rng = random.Random(23)
        for text, vs in [("x+y+1", XY), ("x*y-1", XY), ("x^2+x*y+y^2", XY),
                         ("x+y+z", XYZ), ("y^2-x^3+x", XY)]:
            f = P(text, vs)
            fan = tropical_hypersurface(f).fan
            for _ in range(300):
                w = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 9))
                          for _ in vs)
                assert support_contains(fan, w) == \
                    optimum_attained_twice(f, w), (text, w)


@st.composite
def newton_supports(draw):
    """(n, support): 2 to 8 points in 1 to 4 variables, the images of a
    grid under random integer directions, so that the polytope is often
    lower-dimensional (collinear or coplanar points), shifted into the
    nonnegative orthant."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    dirs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n),
                         min_size=k, max_size=k))
    coords = draw(st.lists(st.tuples(*[st.integers(0, 3)] * k),
                           min_size=2, max_size=8, unique=True))
    points = {tuple(sum(c * d[i] for c, d in zip(cs, dirs)) for i in range(n))
              for cs in coords}
    lows = [min(p[i] for p in points) for i in range(n)]
    support = sorted({tuple(x - low for x, low in zip(p, lows))
                      for p in points})
    assume(len(support) >= 2)
    return n, support


class TestOnePassHypersurface:
    """The hypersurface read off one double description pass against the
    earlier routes: a simplex per support point for the vertices, and a
    pass per vertex pair for the edge cones."""

    @settings(max_examples=120, deadline=None)
    @given(newton_supports(), st.sampled_from(("min", "max")))
    # the unit square: its diagonals span no edge
    @example((2, [(0, 0), (0, 1), (1, 0), (1, 1)]), "min")
    # collinear points in Q^3 with one between the others
    @example((3, [(0, 0, 0), (1, 1, 1), (2, 2, 2)]), "max")
    # one variable, and a square in a plane of Q^4
    @example((1, [(0,), (2,), (5,)]), "min")
    @example((4, [(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1)]),
             "max")
    def test_matches_the_per_pair_passes(self, case, convention):
        n, support = case
        f = Polynomial(tuple("xyzw"[:n]), {e: 1 for e in support})
        assert newton_polytope(f) == reference_newton_polytope(f)
        got = tropical_hypersurface(f, convention)
        want = reference_tropical_hypersurface(f, convention)
        assert got == want
        assert got.multiplicities == want.multiplicities
        for a, b in zip(got.fan.cones, want.fan.cones, strict=True):
            assert a == b
            assert a.inequalities == b.inequalities
            assert a.equations == b.equations


@st.composite
def hypersurface_pairs(draw):
    """Two polynomials in the same 2 to 4 variables, each with 2 to 5
    terms of exponents at most 2."""
    n = draw(st.integers(2, 4))
    support = st.lists(st.tuples(*[st.integers(0, 2)] * n),
                       min_size=2, max_size=5, unique=True)
    variables = tuple("xyzw"[:n])
    return [Polynomial(variables, {e: 1 for e in draw(support)})
            for _ in range(2)]


class TestPrevariety:
    @settings(max_examples=60, deadline=None)
    @given(hypersurface_pairs())
    # two tropical lines meeting at the origin; two planes in Q^3 sharing
    # a lineality
    @example([P("x+y+1", XY), P("x+2*y+3", XY)])
    @example([P("x+y+z", XYZ), P("x^2+y^2+z^2", XYZ)])
    def test_refinement_matches_pairwise_containment(self, polys):
        fans = [tropical_hypersurface(f).fan for f in polys]
        assert common_refinement(*fans) == reference_common_refinement(*fans)

    def test_a4_b4_matches_pairwise_containment(self):
        fans = [tropical_hypersurface(P(text, XYZW)).fan for text in (A4, B4)]
        refined = common_refinement(*fans)
        assert refined == reference_common_refinement(*fans)
        assert_fan_keeps_its_cones(refined)

    def test_example_dim_two(self):
        pre = tropical_prevariety([P("x+y+z", XYZ), P("x^2+y^2+z^2", XYZ)])
        assert fan_dim(pre) == 2
        assert pre == tropical_hypersurface(P("x+y+z", XYZ)).fan

    def test_single_polynomial(self):
        pre = tropical_prevariety([P("x+y+1", XY)])
        assert pre == tropical_hypersurface(P("x+y+1", XY)).fan

    def test_identical_binomial_supports(self):
        pre = tropical_prevariety([P("x+y", XY), P("x+2*y", XY)])
        assert fan_dim(pre) == 1
        assert pre.maximal_cones == ((),)
        assert pre.lineality.columns() == [(1, 1)]

    def test_monomial_propagates(self):
        with pytest.raises(MonomialHypersurfaceError):
            tropical_prevariety([P("x", XY), P("x+y", XY)])


class TestVariety:
    def test_tropical_line(self):
        c = groebner_route_variety(ideal(XY, (P("x+y+1", XY),)))
        assert c.fan.rays.columns() == [(-1, -1), (0, 1), (1, 0)]
        assert c.fan.lineality.ncols == 0
        assert c.fan.maximal_cones == ((0,), (1,), (2,))
        assert c.multiplicities == (1, 1, 1)
        assert fan_dim(c.fan) == 1

    def test_line_and_quadric(self):
        spec = ideal(XYZ, (P("x+y+z", XYZ), P("x^2+y^2+z^2", XYZ)))
        c = tropical_variety(spec)
        assert isinstance(c, TropicalCycle)
        assert c.fan.rays.ncols == 0
        assert c.fan.lineality.columns() == [(1, 1, 1)]
        assert c.fan.maximal_cones == ((),)
        assert c.multiplicities == (2,)
        assert fan_dim(c.fan) == 1

    def test_binomial_lineality(self):
        c = groebner_route_variety(ideal(XY, (P("x*y-1", XY),)))
        assert c.fan.rays.ncols == 0
        assert c.fan.lineality.columns() == [(1, -1)]
        assert c.multiplicities == (1,)

    def test_zero_ideal_rejected(self):
        with pytest.raises(ZeroIdealError):
            tropical_variety(ideal(XY, (P("0", XY),)))

    def test_unit_ideal_rejected(self):
        with pytest.raises(UnitIdealError):
            tropical_variety(ideal(XY, (P("1", XY),)))

    def test_monomial_containing_ideal_is_empty(self):
        c = tropical_variety(ideal(XY, (P("x", XY),)))
        assert c.fan.is_empty()
        assert fan_dim(c.fan) == -1

    def test_max_convention(self):
        spec = ideal(XY, (P("x+y+1", XY),))
        mx = tropical_variety(spec, convention="max")
        assert mx == swap_convention(tropical_variety(spec, convention="min"))

    def test_containment_chain_sampled(self):
        spec = ideal(XYZ, (P("x+y+z", XYZ), P("x^2+y^2+z^2", XYZ)))
        variety = tropical_variety(spec)
        pre = tropical_prevariety(list(spec.generators))
        hyps = [tropical_hypersurface(g).fan for g in spec.generators]
        rng = random.Random(7)
        for _ in range(500):
            w = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 5))
                      for _ in range(3))
            in_var = support_contains(variety.fan, w)
            in_pre = support_contains(pre, w)
            if in_var:
                assert in_pre
            if in_pre:
                assert all(support_contains(h, w) for h in hyps)

    def test_exact_containment_per_cone(self):
        spec = ideal(XYZ, (P("x+y+z", XYZ), P("x^2+y^2+z^2", XYZ)))
        variety = tropical_variety(spec)
        pre = tropical_prevariety(list(spec.generators))
        from tropfan.fans import relative_interior_point
        for c in variety.fan.cones:
            w = relative_interior_point(c)
            assert support_contains(pre, w)
            for g in c.rays.columns():
                assert support_contains(pre, g)
            for l in c.lineality.columns():
                assert support_contains(pre, l)


def count_calls(monkeypatch, homes) -> dict:
    """Count the calls of each function named in homes (name -> defining
    module) from the library, patched in every module that bound it, the
    defining one included: hnf_completion looks int_inverse and det up in
    tropfan.linalg."""
    import tropfan.fans
    import tropfan.groebner
    import tropfan.linalg
    import tropfan.tropical

    calls = dict.fromkeys(homes, 0)
    for name, home in homes.items():
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (tropfan.linalg, tropfan.fans, tropfan.groebner,
                       tropfan.tropical):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


# (name, variables, generators): the heavier probes of the goldens
VARIETY_PROBES = (
    ("linear5", "abcde", ("a+b+c+d+e", "a+2*b+3*c+5*d+7*e")),
    ("curve3", "xyz", ("x+y+z+1", "x*y*z-1")),
    ("curve4", "xyzw", ("x+y+z+w+1", "x*y*z*w-1")),
    ("twisted_cubic", "xyz", ("y-x^2", "z-x^3", "x*z-y^2")),
)


def _variety_cases():
    from tropfan.corpus import PRIME_CORPUS
    return ([(e.name, e.variables, e.generators) for e in PRIME_CORPUS]
            + list(VARIETY_PROBES))


class TestFaceWalk:
    """Tripwires: the face walk over a whole Gröbner fan keys every face by
    ray masks and builds none (55 facets keyed and 39 built on space_conic,
    81 and 71 on linear5, when faces were built by incidence), and it
    saturates only the faces whose facets were all kept (55 and 81
    saturations, one per face, before that pruning), except the lineality
    face, whose initial ideal is the whole ideal, found monomial-free at
    entry (13 and 21 saturations while it was tested again), and the faces
    whose initial ideal has a one-term generator, a monomial (12 and 20
    saturations while those were saturated too); it runs no double
    description and reduces modulo lattices with no unimodular completion
    or inverse. The whole Gröbner route, multiplicities included, forms no
    completion, inverse or determinant (22 of each on a traced `variety`
    run while each multiplicity completed its cell's span lattice)."""

    def walk(self, spec, monkeypatch, facet_counts):
        import tropfan.fans
        import tropfan.groebner
        import tropfan.linalg
        import tropfan.tropical
        from tropfan.groebner import groebner_fan

        fan_data = groebner_fan(homogenize(spec))
        facet_counts.update(keyed=0, built=0)
        calls = count_calls(monkeypatch, {
            "cone_from_halfspaces": tropfan.fans,
            "int_inverse": tropfan.linalg,
            "hnf_completion": tropfan.linalg,
            "saturate": tropfan.groebner})
        kept = tropfan.tropical._kept_faces(fan_data)
        saturations = calls.pop("saturate")
        assert calls == {"cone_from_halfspaces": 0, "int_inverse": 0,
                         "hnf_completion": 0}
        return len(fan_data), dict(facet_counts), saturations, len(kept)

    @pytest.mark.parametrize("case", _variety_cases(), ids=lambda c: c[0])
    def test_groebner_route_forms_no_completion(self, case, monkeypatch):
        import tropfan.linalg

        _, variables, generators = case
        vs = tuple(variables)
        spec = ideal(vs, tuple(P(g, vs) for g in generators))
        calls = count_calls(monkeypatch, dict.fromkeys(
            ("hnf_completion", "int_inverse", "det"), tropfan.linalg))
        assert groebner_route_variety(spec).multiplicities
        assert calls == {"hnf_completion": 0, "int_inverse": 0, "det": 0}

    def test_space_conic_derives_each_face_once(self, monkeypatch,
                                                facet_counts):
        from tropfan.corpus import PRIME_CORPUS

        entry = next(e for e in PRIME_CORPUS if e.name == "space_conic")
        assert self.walk(entry.ideal(), monkeypatch, facet_counts) \
            == (16, {"keyed": 0, "built": 0}, 8, 5)

    def test_linear5_derives_each_face_once(self, monkeypatch, facet_counts):
        vs = tuple("abcde")
        spec = ideal(vs, (P("a+b+c+d+e", vs), P("a+2*b+3*c+5*d+7*e", vs)))
        assert self.walk(spec, monkeypatch, facet_counts) \
            == (10, {"keyed": 0, "built": 0}, 15, 16)


# affine linear forms c_0 + c_1 x_1 + ... + c_n x_n, one row per form, with
# fixed coefficients generic enough for every ideal of DEGREE_CASES
AFFINE_FORMS = (
    (1, 2, -3, 5, -7, 11),
    (3, -1, 4, 1, -5, 9),
    (2, 7, 1, -8, 2, 8),
)

# the ideals of the goldens, and non-reduced ones whose cells weigh 2 and 3,
# with the degrees of their closures in the torus
DEGREE_CASES = [case + (degree,) for case, degree in zip(_variety_cases(), (
    1, 1, 1, 2, 2, 3, 3, 3, 1, 2, 1, 3, 4, 3))] + [
    ("double_line", "xy", ("(x+y+1)^2",), 2),
    ("triple_plane", "xyz", ("(x+y+z+1)^3",), 3),
]


def affine_form(variables, coeffs):
    n = len(variables)
    terms = {(0,) * n: coeffs[0]}
    for i in range(n):
        terms[tuple(int(i == j) for j in range(n))] = coeffs[i + 1]
    return Polynomial(variables, terms)


class TestTropicalDegree:
    """Known answer: a d-dimensional Trop(V(I)) meets d copies of the
    tropical hyperplane Trop(1 + x_1 + ... + x_n) stably in the origin, with
    the degree of the closure of V(I) in the torus as its weight (Maclagan
    and Sturmfels, Introduction to Tropical Geometry, Chapter 3). Classically
    that degree is the length of (I : (x_1...x_n)^inf) plus d generic
    affine linear forms. The identity checks the Gröbner multiplicities, the
    stable intersection and the Gröbner engine against each other."""

    @pytest.mark.parametrize("name, variables, generators, degree",
                             DEGREE_CASES, ids=[c[0] for c in DEGREE_CASES])
    def test_tropical_degree_is_the_classical_degree(
            self, name, variables, generators, degree):
        vs = tuple(variables)
        spec = ideal(vs, tuple(P(g, vs) for g in generators))
        cycle = groebner_route_variety(spec)
        d = fan_dim(cycle.fan)
        hyperplane = tropical_hypersurface(P("+".join(("1",) + vs), vs))
        point = reduce(stable_intersection, [hyperplane] * d, cycle)
        assert point.fan.maximal_cones == ((),)
        assert point.fan.lineality.ncols == 0
        assert point.multiplicities == (degree,)
        saturated = saturate(spec, product_of_variables(vs))
        forms = tuple(affine_form(vs, c) for c in AFFINE_FORMS[:d])
        assert vector_space_dimension(
            ideal(vs, saturated.generators + forms)) == degree


class TestPrunedFaceWalk:
    """The pruned mask walk keeps the faces that testing every face keeps:
    the same keys in the same order, with the same initial ideals."""

    @pytest.mark.parametrize("case", _variety_cases(), ids=lambda c: c[0])
    def test_matches_testing_every_face(self, case):
        from tropfan.fans import cone_key
        from tropfan.groebner import groebner_fan
        from tropfan.tropical import _kept_faces

        _, variables, generators = case
        vs = tuple(variables)
        spec = ideal(vs, tuple(P(g, vs) for g in generators))
        fan_data = groebner_fan(homogenize(spec))
        got = _kept_faces(fan_data)
        want = reference_kept_faces(fan_data)
        assert [face.key for face, _ in got] \
            == [cone_key(face) for face, _ in want]
        assert [inw.generators for _, inw in got] \
            == [inw.generators for _, inw in want]
        for face, _ in got:
            assert face.point == relative_interior_point(face.build())


# hypersurfaces in four and five variables whose cycles the CLI intersects
A4 = "x*y+z*w+x*z+y*w+x^2+w^2+y^2*z+1"
B4 = "x^2*y+y^2*z+z^2*w+w^2*x+x*y*z+y*z*w+1"
A5 = "a*b+c*d+e*a+b*c+d*e+a^2+e^2+1"
B5 = "a^2*b+b^2*c+c^2*d+d^2*e+e^2*a+a*b*c*d*e+1"
C4 = "x^3+y^3+z^3+w^3+x*y*z*w+x*y+z*w+1"
XYZW = ("x", "y", "z", "w")


def assert_fan_keeps_its_cones(fan):
    """Each kept cone equals the reference's, and so does the H-description
    it derives on first read (equality reads the V-description only)."""
    assert len(fan.cones) == len(fan.maximal_cones)
    for i, cone in enumerate(fan.cones):
        want = reference_fan_cone(fan, i)
        assert cone == want
        assert cone.inequalities == want.inequalities
        assert cone.equations == want.equations


class TestFansKeepTheirCones:
    """Every fan the library returns carries the cones that rebuilding them
    from its rays and lineality gives."""

    def test_hypersurfaces(self):
        for text, vs in [(A4, XYZW), ("x+y+1", XY), ("x^2+y^2+z^2", XYZ),
                         ("x*y-1", XY)]:
            for convention in ("min", "max"):
                assert_fan_keeps_its_cones(
                    tropical_hypersurface(P(text, vs), convention).fan)

    def test_varieties(self):
        from tropfan.corpus import PRIME_CORPUS
        for entry in PRIME_CORPUS:
            for convention in ("min", "max"):
                assert_fan_keeps_its_cones(groebner_route_variety(
                    entry.ideal(), convention).fan)

    def test_stable_intersections(self):
        a = tropical_hypersurface(P(A4, XYZW))
        b = tropical_hypersurface(P(B4, XYZW))
        assert_fan_keeps_its_cones(stable_intersection(a, b).fan)
        line = tropical_hypersurface(P("x+y+z", XYZ))
        conic = tropical_hypersurface(P("x^2+y^2+z^2+x*y", XYZ))
        assert_fan_keeps_its_cones(stable_intersection(line, conic).fan)

    def test_prevarieties(self):
        for texts, vs in [(("x+y+z", "x^2+y^2+z^2"), XYZ),
                          (("x+y+1", "x-y"), XY), (("x*y+z",), XYZ)]:
            assert_fan_keeps_its_cones(
                tropical_prevariety([P(t, vs) for t in texts]))

    def test_cycle_from_dict(self):
        from tropfan.cycles import cycle_from_dict, cycle_to_dict, fan_to_dict
        cycle = tropical_hypersurface(P(A4, XYZW))
        read = cycle_from_dict(cycle_to_dict(cycle))
        assert read == cycle
        assert_fan_keeps_its_cones(read.fan)
        assert_fan_keeps_its_cones(
            cycle_from_dict(fan_to_dict(cycle.fan, "min"),
                            require_weights=False))
        # rays neither primitive nor reduced modulo the lineality
        plane = cycle_from_dict({
            "convention": "min", "ambient_dim": 3,
            "rays": [[2, 0, 0], [1, 4, 1], [-3, -3, 0]],
            "lineality": [[1, 1, 1]],
            "maximal_cones": [[0], [1], [2]], "multiplicities": [1, 1, 1]})
        assert_fan_keeps_its_cones(plane.fan)


class TestConesBuiltOnce:
    """Tripwires on CLI commands: a fan's cones are never rebuilt, an
    intersection is built only when its key and dimension are needed, and
    balancing finds the cones around a facet by incidence. Counted are the
    double description passes (one per cone, whether keyed or built), the
    rank computations inside them (none: adjacency is combinatorial), the
    cones read from generators, and contains_cone calls. Kept apart, in
    run.linalg, are the cone_feasible calls, none on any command, and the
    Hermite normal forms;
    in run.full, the passes asked for a full-dimensional cone that stop at a
    dimension drop and those that finish; and in run.derived, the cones
    whose equations (an integer kernel) and inequalities (reduced modulo the
    equations) are derived on first read."""

    @pytest.fixture
    def run(self, tmp_path, monkeypatch, capsys):
        import tropfan.cycles
        import tropfan.fans
        import tropfan.linalg
        import tropfan.polynomials
        from tropfan.cli import main

        monkeypatch.chdir(tmp_path)
        counts = {"dd": 0, "rank_in_dd": 0, "from_generators": 0,
                  "contains_cone": 0}
        depth = [0]

        def counted(key, original, into=counts):
            def wrapper(*args):
                into[key] += 1
                return original(*args)
            return wrapper

        full = {"stopped": 0, "finished": 0}

        def dd(*args, **kwargs):
            counts["dd"] += 1
            depth[0] += 1
            try:
                out = original_dd(*args, **kwargs)
            finally:
                depth[0] -= 1
            if kwargs.get("full"):
                full["stopped" if out is None else "finished"] += 1
            return out

        def rank(rows):
            counts["rank_in_dd"] += depth[0] > 0
            return original_rank(rows)

        original_dd = tropfan.fans._dd
        original_rank = tropfan.linalg.rational_rank
        monkeypatch.setattr(tropfan.fans, "_dd", dd)
        for module in (tropfan.fans, tropfan.linalg):
            monkeypatch.setattr(module, "rational_rank", rank)
        generators = counted("from_generators",
                             tropfan.fans.cone_from_generators)
        for module in (tropfan.fans, tropfan.cycles, tropfan.polynomials):
            monkeypatch.setattr(module, "cone_from_generators", generators)
        monkeypatch.setattr(tropfan.fans.Cone, "contains_cone",
                            counted("contains_cone",
                                    tropfan.fans.Cone.contains_cone))
        derived = {"equations": 0, "inequalities": 0}
        for key, name in (("equations", "_equation_basis"),
                          ("inequalities", "inequalities")):
            def derive(cone, _key=key,
                       _func=tropfan.fans.Cone.__dict__[name].func):
                derived[_key] += 1
                return _func(cone)

            prop = cached_property(derive)
            prop.__set_name__(tropfan.fans.Cone, name)
            monkeypatch.setattr(tropfan.fans.Cone, name, prop)
        linalg = {"cone_feasible": 0, "hnf": 0}
        monkeypatch.setattr(tropfan.linalg, "hermite_normal_form", counted(
            "hnf", tropfan.linalg.hermite_normal_form, linalg))
        feasible = counted("cone_feasible", tropfan.linalg.cone_feasible,
                           linalg)
        for module in (tropfan, tropfan.linalg):
            monkeypatch.setattr(module, "cone_feasible", feasible)

        def command(*argv):
            for tally in (counts, linalg, full, derived):
                tally.update(dict.fromkeys(tally, 0))
            tropfan.linalg._unit_smith.cache_clear()  # as in a fresh process
            assert main(list(argv)) == 0
            capsys.readouterr()
            # no command tests cone membership by generators
            assert linalg["cone_feasible"] == 0
            command.linalg = dict(linalg)
            command.full = dict(full)
            command.derived = dict(derived)
            return dict(counts)

        return command

    def hypersurfaces(self, run, *labels):
        polys = {"A4": (A4, "x,y,z,w"), "B4": (B4, "x,y,z,w"),
                 "A5": (A5, "a,b,c,d,e"), "B5": (B5, "a,b,c,d,e")}
        for label in labels:
            poly, vs = polys[label]
            run("hypersurface", poly, "--vars", vs, "--format", "json",
                "--out", f"{label}.json")

    def test_hypersurface_builds_only_codimension_one_pairs(self, run):
        # one pass, over the Newton polytope's homogenized support, gives
        # the vertices and the facets; the 20 edges among the 28 vertex
        # pairs and their normal cones are read off its incidences (28
        # passes, 8 of them stopped at a dimension drop and 20 finished,
        # while every pair took one, and a simplex per support point found
        # the vertices). The text output checks balancing, which reads the
        # facets of the 20 cones
        assert run("hypersurface", A4, "--vars", "x,y,z,w") \
            == {"dd": 1, "rank_in_dd": 0, "from_generators": 1,
                "contains_cone": 0}
        assert run.full == {"stopped": 0, "finished": 0}
        assert run.derived == {"equations": 20, "inequalities": 20}
        # JSON output reads no facet, so none is derived
        run("hypersurface", A4, "--vars", "x,y,z,w", "--format", "json")
        assert run.derived == {"equations": 0, "inequalities": 0}

    def test_max_hypersurface_negates_without_a_pass(self, run):
        # the one pass of the min hypersurface (28, one per vertex pair,
        # before it read its edges off one pass), and none for negating its
        # 20 cones (48 passes when each negated cone took a dual pass); JSON
        # output derives no facet of the negated cones either
        assert run("hypersurface", A4, "--vars", "x,y,z,w", "--max",
                   "--format", "json") \
            == {"dd": 1, "rank_in_dd": 0, "from_generators": 1,
                "contains_cone": 0}
        assert run.derived == {"equations": 0, "inequalities": 0}

    def test_stable_intersection_builds_each_piece_once(self, run):
        self.hypersurfaces(run, "A5", "B5")
        # 41 input cones read, and the 268 pairs no row separates keyed, as
        # the sign test needs their intersections (274 under the random
        # displacement of seed 0, 187 when only the pairs the simplex
        # accepted were keyed); the 87 distinct cells are built from the
        # incidences of their keying pass
        assert run("stable-intersection", "A5.json", "B5.json",
                   "--format", "json", "--out", "A5B5.json") \
            == {"dd": 41 + 268, "rank_in_dd": 0, "from_generators": 41,
                "contains_cone": 0}
        # 177 of the 268 pairs meet below the expected dimension, and their
        # passes stop at the first dimension drop (183 of 274 under the
        # random displacement of seed 0); 91 finish. The facets of
        # the 41 cones read are derived, as the separating rows read them,
        # and those of the 87 cells, which the JSON output does not read,
        # are not
        assert run.full == {"stopped": 177, "finished": 91}
        assert run.derived == {"equations": 41, "inequalities": 41}
        # 87 cones read, one pass each, none rebuilt, no containment scan
        assert run("is-balanced", "A5B5.json") \
            == {"dd": 87, "rank_in_dd": 0, "from_generators": 87,
                "contains_cone": 0}
        assert run.derived == {"equations": 87, "inequalities": 87}
        # the cones read take their equations as integer kernels of their
        # generators, and balancing maps each facet's neighbours through one
        # kernel (905 Hermite normal forms when they saturated equation
        # vectors, 724 while balancing built its facets and every Hermite
        # basis computed a witness, 355 while each pass started from a
        # Hermite kernel of its equations)
        assert run.linalg["hnf"] == 268
        # the text output checks balancing, so it reads the facets of the
        # 87 cells as well
        run("stable-intersection", "A5.json", "B5.json")
        assert run.derived == {"equations": 41 + 87, "inequalities": 41 + 87}

    def test_balancing_builds_no_facet_and_no_smith_form(
            self, run, facet_counts, monkeypatch):
        import tropfan.cli
        import tropfan.linalg

        self.hypersurfaces(run, "A5", "B5")
        run("stable-intersection", "A5.json", "B5.json",
            "--format", "json", "--out", "A5B5.json")
        smith = [0]
        inside = [False]
        original_smith = tropfan.linalg.smith_normal_form
        original_balanced = tropfan.cli.is_balanced

        def counted_smith(m):
            smith[0] += inside[0]
            return original_smith(m)

        def balanced(cycle):
            inside[0] = True
            try:
                return original_balanced(cycle)
            finally:
                inside[0] = False

        monkeypatch.setattr(tropfan.linalg, "smith_normal_form", counted_smith)
        monkeypatch.setattr(tropfan.cli, "is_balanced", balanced)
        facet_counts.update(keyed=0, built=0)
        run("is-balanced", "A5B5.json")
        # the facets of the 87 cones are keyed and none is built; reading
        # the cones runs Smith forms, balancing them none
        assert facet_counts == {"keyed": 87, "built": 0}
        assert smith == [0]

    def test_stable_intersection_simplex_runs(self, run):
        # no pair goes to the simplex: the sign test decides each pair that
        # no row separates (274 and 138 runs when the simplex decided them,
        # 418 and 356 before the separating rows). The cones take their
        # equations and lineality as integer kernels, unsaturated; the
        # Hermite normal forms are those of reading the cones and of the
        # kernels in the keying passes, which now run on every pair the
        # simplex decided (863 and 522 when the kernels were saturated
        # again, 689 and 454 when cones read from generators saturated their
        # equation vectors and the span lattices were put in Hermite form
        # again, 607 and 382 while every Hermite basis computed a witness,
        # 438 and 276 while only the pairs the simplex accepted were keyed,
        # 525 and 320 while every keying pass started from a Hermite kernel
        # and every cell built took one for its equations). Now a pass
        # starts from an echelon kernel, and the cells' equations are never
        # read: what is left is reading the cones and their span lattices
        self.hypersurfaces(run, "A5", "B5", "A4", "B4")
        run("stable-intersection", "A5.json", "B5.json",
            "--format", "json")
        assert run.linalg == {"cone_feasible": 0, "hnf": 123}
        run("stable-intersection", "A4.json", "B4.json",
            "--format", "json")
        # 110 under the random displacement of seed 0
        assert run.linalg == {"cone_feasible": 0, "hnf": 109}

    def test_prevariety_builds_each_piece_once(self, tmp_path, run):
        (tmp_path / "A4B4.ideal").write_text(f"vars: x,y,z,w\n{A4}\n{B4}\n")
        # the two hypersurfaces, one pass each (28 + 21 = 49 passes, one per
        # vertex pair, before: 409 in all), then 20 x 18 pieces keyed, of
        # which 47 distinct ones are built with no further pass. No
        # containment scan runs (1712 while fan_from_cones dropped pieces
        # inside others by pairwise scans): a piece inside a larger one is a
        # face of it, met by the larger piece's face lattice walk
        assert run("prevariety", "A4B4.ideal", "--format", "json") \
            == {"dd": 1 + 1 + 20 * 18, "rank_in_dd": 0,
                "from_generators": 2, "contains_cone": 0}


class TestBalancingA5B5:
    """is_balanced against the oracle that scans every cone, on the curve
    A5 . B5 in Q^5 (87 cones, weights 1 to 6) with its weights changed."""

    def test_bumped_weights(self):
        vs = ("a", "b", "c", "d", "e")
        cycle = stable_intersection(
            tropical_hypersurface(parse_polynomial(A5, vs)),
            tropical_hypersurface(parse_polynomial(B5, vs)))
        mults = list(cycle.multiplicities)
        assert (len(mults), set(mults)) == (87, {1, 2, 3, 4, 6})
        # the cycle, its double, and one weight raised on every eighth cone
        variants = [mults, [2 * m for m in mults]]
        for i in range(0, len(mults), 8):
            variants.append(mults[:i] + [mults[i] + 1] + mults[i + 1:])
        verdicts = []
        for weights in variants:
            c = make_cycle(cycle.fan, weights)
            verdicts.append(is_balanced(c))
            assert verdicts[-1] == reference_is_balanced(c)
        assert verdicts == [True, True] + [False] * (len(variants) - 2)


class TestUnknownConvention:
    """A convention other than min or max is an error, not a min answer."""

    def check(self, call):
        with pytest.raises(ValueError, match="convention must be 'min' or 'max'"):
            call()

    def line_fan(self):
        fan, _ = fan_from_cones(2, [cone_from_generators([r], [], 2)
                                    for r in [(1, 0), (0, 1), (-1, -1)]])
        return fan

    def test_tropical_cycle(self):
        self.check(lambda: TropicalCycle(self.line_fan(), (1, 1, 1), "foo"))

    def test_tropical_evaluate(self):
        self.check(lambda: tropical_evaluate(P("x+y+1", XY), (1, 2), "foo"))

    def test_tropical_hypersurface(self):
        self.check(lambda: tropical_hypersurface(P("x+y+1", XY), "foo"))

    def test_tropical_variety(self):
        spec = ideal(XY, (P("x+y+1", XY),))
        self.check(lambda: tropical_variety(spec, convention="foo"))

    def test_make_cycle(self):
        self.check(lambda: make_cycle(self.line_fan(), [1, 1, 1], "foo"))


class TestPrincipalConsistency:
    def test_paths_agree(self):
        for text, vs in [("x+y+1", XY), ("x^2+y^2+z^2", XYZ), ("x*y-1", XY)]:
            spec = ideal(vs, (P(text, vs),))
            assert groebner_route_variety(spec) == tropical_variety(spec)


class TestMultiplicityAt:
    def test_line_cell(self):
        hv = ("h", "x", "y")
        spec = ideal(hv, (P("x+y+h", hv),))
        from tropfan.fans import cone_from_halfspaces
        # cell dual to the edge between the x and y exponents
        sigma = cone_from_halfspaces([(1, -1, 0)], [(0, 1, -1)], 3)
        assert multiplicity_at(spec, sigma) == 2 - 1

    def test_quadric_cells(self):
        hv = ("h", "x", "y", "z")
        spec = homogenize(ideal(XYZ, (P("x^2+y^2+z^2", XYZ),)))
        c = groebner_route_variety(ideal(XYZ, (P("x^2+y^2+z^2", XYZ),)))
        assert set(c.multiplicities) == {2}

    def test_homogeneity_space_cell(self):
        spec = homogenize(ideal(XYZ, (P("x+y+z", XYZ), P("x^2+y^2+z^2", XYZ))))
        from tropfan.fans import cone_from_generators
        sigma = cone_from_generators([], [(1, 0, 0, 0), (0, 1, 1, 1)], 4)
        assert multiplicity_at(spec, sigma) == 2

    def test_non_maximal_cell_rejected(self):
        from tropfan.errors import NotZeroDimensionalError
        from tropfan.fans import cone_from_generators
        hv = ("h", "x", "y")
        spec = ideal(hv, (P("x+y+h", hv),))
        # the homogeneity line is a proper face of the maximal cells
        sigma = cone_from_generators([], [(1, 1, 1)], 3)
        with pytest.raises(NotZeroDimensionalError):
            multiplicity_at(spec, sigma)

    def test_matches_newton_edge_lengths(self):
        from tropfan.polynomials import edge_lattice_length, newton_polytope
        for text, vs in [("x+y+1", XY), ("x^3+y^3+1", XY),
                         ("y^2-x^3+x", XY), ("x^2+x*y+y^2", XY)]:
            spec = ideal(vs, (P(text, vs),))
            groebner_route = groebner_route_variety(spec)
            newton_route = tropical_variety(spec)
            assert groebner_route == newton_route
            assert all(m >= 1 for m in groebner_route.multiplicities)


class TestTropicalBasis:
    def test_example_false(self):
        assert not is_tropical_basis([P("x+y+z", XYZ), P("x^2+y^2+z^2", XYZ)])

    def test_zero_ideal_rejected(self):
        with pytest.raises(ZeroIdealError):
            is_tropical_basis([P("0", XY)])

    def test_unit_ideal_rejected(self):
        with pytest.raises(UnitIdealError):
            is_tropical_basis([P("x+1", XY), P("x", XY)])

    def test_ideal_validated_once(self, monkeypatch):
        import tropfan.tropical

        calls = []
        original = tropfan.tropical._validated
        monkeypatch.setattr(tropfan.tropical, "_validated",
                            lambda spec: calls.append(spec) or original(spec))
        assert is_tropical_basis([P("x+y+1", XY)])
        assert len(calls) == 1

    def test_principal_always_true(self):
        assert is_tropical_basis([P("x+y+1", XY)])

    def test_one_polynomial_walks_no_fan(self, monkeypatch):
        # its hypersurface is the variety of the ideal it generates; a second
        # copy of f generates the same ideal and takes the refinement path
        import tropfan.tropical

        walks = []
        original = tropfan.tropical.groebner_fan
        monkeypatch.setattr(tropfan.tropical, "groebner_fan",
                            lambda spec: walks.append(spec) or original(spec))
        for text, vs in [("x+y+1", XY), ("y^2-x^3+x", XY),
                         ("x^3+y^3+1", XY), ("x*y-z^2", XYZ),
                         ("x*(y+z+1)", XYZ)]:
            f = P(text, vs)
            walks.clear()
            assert is_tropical_basis([f]) is True
            assert walks == []
            assert is_tropical_basis([f, f]) is True
            assert walks

    def test_one_polynomial_builds_no_hypersurface(self, monkeypatch):
        # f's hypersurface is the variety, nonempty when the ideal holds no
        # monomial, so neither it nor a prevariety is built; and an ideal
        # with one generator is proper when it is no constant
        import tropfan.groebner
        import tropfan.tropical

        calls = {"tropical_hypersurface": 0, "reduced_groebner_basis": 0}
        for name in calls:
            for module in (tropfan.tropical, tropfan.groebner):
                original = getattr(module, name, None)
                if original is None:
                    continue

                def counted(*args, _name=name, _original=original, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        f = P("x^2+y^2+z^2+w^2+x*y+1", XYZW)
        assert is_tropical_basis([f]) is True
        assert calls == {"tropical_hypersurface": 0,
                         "reduced_groebner_basis": 0}

    @pytest.mark.parametrize("text, error", [
        ("x*y", MonomialHypersurfaceError),
        ("-2*x^2", MonomialHypersurfaceError),
        ("3", UnitIdealError),
        ("0", ZeroIdealError)])
    def test_one_polynomial_errors(self, text, error):
        with pytest.raises(error):
            is_tropical_basis([P(text, XY)])

    def test_linear_forms_true(self):
        assert is_tropical_basis([P("x+y", XYZ), P("y+z", XYZ)])


# the ideals of the goldens and the benchmark's is-tropical-basis commands
BASIS_CASES = _variety_cases() + [("line_conic", "xyz", ("x+y+z", "x^2+y^2+z^2"))]


def basis_outcome(decide, polys):
    """decide(polys), or the type of the error it raises."""
    try:
        return decide(polys)
    except TropfanError as e:
        return type(e)


@st.composite
def small_pairs(draw):
    """Two polynomials in 2-3 variables, each of 2-3 terms (before equal
    monomials merge) of degree at most 2 with coefficients in -2..2."""
    n = draw(st.integers(2, 3))
    variables = ("x", "y", "z")[:n]
    monomial = st.lists(st.integers(0, n - 1), max_size=2).map(
        lambda idx: tuple(idx.count(i) for i in range(n)))
    term = st.tuples(monomial, st.integers(-2, 2).filter(bool))
    poly = st.lists(term, min_size=2, max_size=3).map(
        lambda terms: Polynomial(variables, dict(terms)))
    return [draw(poly), draw(poly)]


class TestTropicalBasisBuildsNoFace:
    def test_benchmark_ideals(self, monkeypatch):
        # each full piece is decided by the key of the face of its Gröbner
        # cone that holds its interior point, so neither a face nor a cell
        # of the Gröbner fan is built (the maximal cells were built, and
        # every piece's point tested against them, before)
        import tropfan.fans

        built = []
        original = tropfan.fans._face_cone
        monkeypatch.setattr(
            tropfan.fans, "_face_cone",
            lambda *args: built.append(args) or original(*args))
        cases = {c[0]: c for c in BASIS_CASES}
        answers = [is_tropical_basis([P(g, tuple(cases[name][1]))
                                      for g in cases[name][2]])
                   for name in ("line_conic", "twisted_cubic", "space_conic",
                                "curve3")]
        assert answers == [False, True, True, True]
        assert built == []


class TestTropicalBasisAgainstReference:
    """is_tropical_basis decides on supports, from the full-dimensional
    pieces in homogenized coordinates; the reference refines each
    prevariety cone against the whole sliced Gröbner fan and tests every
    piece against the weighted variety."""

    @pytest.mark.parametrize("case", BASIS_CASES, ids=lambda c: c[0])
    def test_named_ideals(self, case):
        _, variables, generators = case
        polys = [P(g, tuple(variables)) for g in generators]
        assert is_tropical_basis(polys) == reference_is_tropical_basis(polys)

    def test_known_answers(self):
        # the benchmark's references for its four commands; two generic
        # linear forms miss circuits of their linear space
        cases = {c[0]: c for c in BASIS_CASES}
        answers = {name: is_tropical_basis(
            [P(g, tuple(cases[name][1])) for g in cases[name][2]])
            for name in ("line_conic", "twisted_cubic", "space_conic",
                         "curve3", "linear5", "linear_pair4")}
        assert answers == {"line_conic": False, "twisted_cubic": True,
                           "space_conic": True, "curve3": True,
                           "linear5": False, "linear_pair4": False}

    @settings(max_examples=100, deadline=None)
    @given(small_pairs())
    @example([P("x+y+1", XY), P("x+2*y+3", XY)])
    @example([P("x*y+x", XY), P("y+1", XY)])
    def test_drawn_pairs(self, polys):
        assert basis_outcome(is_tropical_basis, polys) \
            == basis_outcome(reference_is_tropical_basis, polys)


def multiplicity_routes(spec) -> list:
    """(witness route, completion route) multiplicity of every maximal cell
    of Trop(I^h), for a monomial-free ideal."""
    out = []
    for face, inw in _maximal_kept_faces(spec):
        sigma = face.build()
        out.append((_multiplicity_from_initial(inw, sigma),
                    reference_multiplicity_from_initial(inw, sigma)))
    return out


class TestMultiplicityAgainstCompletion:
    """A cell's multiplicity reads its residual exponents off the first rows
    of the equation lattice's Smith witness; the reference reads them off a
    unimodular completion of the span lattice. The two residual ideals
    differ by a unimodular substitution, so every degree agrees."""

    @pytest.mark.parametrize("case", _variety_cases(), ids=lambda c: c[0])
    def test_named_ideals(self, case):
        _, variables, generators = case
        vs = tuple(variables)
        routes = multiplicity_routes(
            ideal(vs, tuple(P(g, vs) for g in generators)))
        assert routes and all(a == b for a, b in routes)

    def test_weights_two_and_three(self):
        cases = {c[0]: c for c in DEGREE_CASES}
        for name, weight in (("double_line", 2), ("triple_plane", 3)):
            _, variables, generators, _ = cases[name]
            vs = tuple(variables)
            routes = multiplicity_routes(
                ideal(vs, tuple(P(g, vs) for g in generators)))
            assert routes and all(r == (weight, weight) for r in routes)

    def test_grassmannian25(self):
        assert multiplicity_routes(plucker_ideal()) == [(1, 1)] * 15

    def test_inhomogeneous_generator_refused(self):
        # on the cell where x and y tie, x + y is an initial form and
        # x + y + h is not
        hv = ("h", "x", "y")
        sigma = cone_from_halfspaces([(1, -1, 0)], [(0, 1, -1)], 3)
        for route in (_multiplicity_from_initial,
                      reference_multiplicity_from_initial):
            assert route(ideal(hv, (P("x+y", hv),)), sigma) == 1
            with pytest.raises(DimMismatchError, match="not a face"):
                route(ideal(hv, (P("x+y+h", hv),)), sigma)

    @settings(max_examples=50, deadline=None)
    @given(small_pairs())
    @example([P("x^2+y", XY), P("x*y+1", XY)])
    def test_drawn_pairs(self, polys):
        spec = IdealSpec(polys[0].variables, tuple(polys))
        try:
            free = _validated(spec)
        except TropfanError:
            return
        if free:
            assert all(a == b for a, b in multiplicity_routes(spec))


class TestStableIntersection:
    def test_line_times_conic(self):
        tl = tropical_variety(ideal(XYZ, (P("x+y+z", XYZ),)))
        tc = tropical_variety(ideal(XYZ, (P("x^2+y^2+z^2", XYZ),)))
        got = stable_intersection(tl, tc)
        assert got.fan.rays.ncols == 0
        assert got.fan.lineality.columns() == [(1, 1, 1)]
        assert got.fan.maximal_cones == ((),)
        assert got.multiplicities == (2,)
        assert fan_dim(got.fan) == 1

    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_lower_cones_of_a_non_pure_cycle_carry_no_weight(self, seed):
        # a quadrant and a lone ray: the fan displacement rule needs pure
        # cycles, since a cell's expected dimension is that of its cones.
        # The lone ray is not dropped with weight zero, as it once was with
        # an answer that depended on the random displacement: both orders
        # are refused, and so are they by the reference at every seed
        from tropfan.cycles import cycle_from_dict

        mixed = cycle_from_dict({
            "convention": "min", "ambient_dim": 2,
            "rays": [[1, 0], [0, 1], [-1, -1]], "lineality": [],
            "maximal_cones": [[0, 1], [2]], "multiplicities": [1, 1]})
        line = tropical_hypersurface(P("x+y+1", XY))
        for a, b in ((mixed, line), (line, mixed)):
            with pytest.raises(NotPureError):
                stable_intersection(a, b)
            with pytest.raises(NotPureError):
                reference_stable_intersection(a, b, seed)

    def test_line_self_intersection(self):
        line = tropical_variety(ideal(XY, (P("x+y+1", XY),)))
        got = stable_intersection(line, line)
        assert got.fan.maximal_cones == ((),)
        assert got.fan.rays.ncols == 0
        assert got.fan.lineality.ncols == 0
        assert got.multiplicities == (1,)
        assert fan_dim(got.fan) == 0

    def test_full_space_is_identity(self):
        fs, _ = fan_from_cones(2, [cone_from_halfspaces([], [], 2)])
        unit = TropicalCycle(fs, (1,), "min")
        line = tropical_variety(ideal(XY, (P("x+y+1", XY),)))
        assert stable_intersection(unit, line) == line
        assert stable_intersection(line, unit) == line

    def test_parallel_curves_empty(self):
        h = tropical_variety(ideal(XY, (P("x*y-1", XY),)))
        got = stable_intersection(h, h)
        assert got.fan.is_empty()
        assert got.multiplicities == ()

    def test_seed_independence(self):
        # the symbolic displacement gives the answer the reference's random
        # displacements give, whatever their seed
        tl = tropical_variety(ideal(XYZ, (P("x+y+z", XYZ),)))
        tc = tropical_variety(ideal(XYZ, (P("x^2+y^2+z^2", XYZ),)))
        line = tropical_variety(ideal(XY, (P("x+y+1", XY),)))
        for (a, b), seeds in (((tl, tc), (0, 1, 2, 99)),
                              ((line, line), (0, 5, 12))):
            got = cycle_to_dict(stable_intersection(a, b))
            for s in seeds:
                assert cycle_to_dict(reference_stable_intersection(a, b, s)) \
                    == got

    def test_convention_mismatch(self):
        line = tropical_variety(ideal(XY, (P("x+y+1", XY),)))
        with pytest.raises(ConventionMismatchError):
            stable_intersection(line, swap_convention(line))

    def test_dim_mismatch(self):
        line = tropical_variety(ideal(XY, (P("x+y+1", XY),)))
        plane = tropical_variety(ideal(XYZ, (P("x+y+z", XYZ),)))
        with pytest.raises(DimMismatchError):
            stable_intersection(line, plane)

    def test_bezout_degrees(self):
        # cubic times line in the plane: 3 points counted with multiplicity
        cubic = tropical_variety(ideal(XY, (P("x^3+y^3+1", XY),)))
        line = tropical_variety(ideal(XY, (P("x+y+1", XY),)))
        got = stable_intersection(cubic, line)
        assert sum(got.multiplicities) == 3
        quad = tropical_variety(ideal(XY, (P("x^2+y^2+1", XY),)))
        got = stable_intersection(quad, line)
        assert sum(got.multiplicities) == 2

    def test_bezout_homogeneous_trinomials(self):
        # degree d trinomial curves in three variables: total weight d1*d2
        curves = {d: tropical_variety(
            ideal(XYZ, (P(f"x^{d}+y^{d}+z^{d}", XYZ),))) for d in (1, 2, 3)}
        for d1 in (1, 2, 3):
            for d2 in (1, 2, 3):
                got = stable_intersection(curves[d1], curves[d2])
                assert sum(got.multiplicities) == d1 * d2, (d1, d2)

    def test_plane_self_intersection_is_a_curve(self):
        plane = tropical_variety(ideal(XYZ, (P("x+y+z+1", XYZ),)))
        got = stable_intersection(plane, plane)
        assert fan_dim(got.fan) == 1
        assert got.fan.rays.columns() == [(-1, -1, -1), (0, 0, 1),
                                          (0, 1, 0), (1, 0, 0)]
        assert got.multiplicities == (1, 1, 1, 1)
        assert is_balanced(got)
        for s in (1, 2, 3):
            assert cycle_to_dict(reference_stable_intersection(
                plane, plane, s)) == cycle_to_dict(got)

    def test_subdivided_full_plane_identity(self):
        quads = [cone_from_generators(q, [], 2) for q in
                 [[(1, 0), (0, 1)], [(0, 1), (-1, 0)],
                  [(-1, 0), (0, -1)], [(0, -1), (1, 0)]]]
        fan, _ = fan_from_cones(2, quads)
        unit = TropicalCycle(fan, (1, 1, 1, 1), "min")
        assert stable_intersection(unit, unit) == unit

    def test_min_and_max_agree_after_swap(self):
        a = tropical_variety(ideal(XYZ, (P("x+y+z", XYZ),)))
        b = tropical_variety(ideal(XYZ, (P("x^2+y^2+z^2", XYZ),)))
        mn = stable_intersection(a, b)
        mx = stable_intersection(swap_convention(a), swap_convention(b))
        assert mx == swap_convention(mn)


@st.composite
def hypersurface_pairs(draw):
    """Two tropical hypersurfaces in 2 to 4 variables. Either polynomial may
    be homogeneous, so that its fan has the lineality (1, ..., 1)."""
    n = draw(st.integers(2, 4))
    variables = tuple("xyzw"[:n])

    def hypersurface():
        homogeneous = draw(st.booleans())
        exps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * (n - homogeneous)),
                             min_size=2, max_size=5, unique=True))
        if homogeneous:
            d = max(map(sum, exps))
            exps = [e + (d - sum(e),) for e in exps]
        coeffs = draw(st.lists(st.integers(1, 3), min_size=len(exps),
                               max_size=len(exps)))
        return tropical_hypersurface(Polynomial(variables,
                                                dict(zip(exps, coeffs))))

    return hypersurface(), hypersurface()


# the far end of the moment curve that the tests evaluate the simplex at
FAR = 10 ** 4


def far_point(ca, cb, far=FAR):
    """v_far = (far^(n-1), ..., far, 1), the point t = 1/far of the moment
    curve v(t) = (t, t^2, ..., t^n) scaled by far^n. A row y whose entries
    are all smaller than far / 2 in absolute value has on v_far the sign of
    its first nonzero entry, as it has on v(t) for small t. The bound is
    asserted for the facet and equation rows of ca - cb, so that v_far lies
    in ca - cb exactly when v(t) does for small t."""
    n = ca.ambient_dim
    rays, lin = displacement_difference(ca, cb)
    facets, equations = reference_dd(rays.columns(), lin.columns(), n)
    assert all(2 * abs(c) < far for y in facets + equations for c in y)
    return tuple(far ** (n - 1 - k) for k in range(n))


def curve_feasible(ca, cb, far=FAR):
    """The simplex's verdict on v(t) in ca - cb for small t, at v_far."""
    return reference_cone_feasible(*displacement_difference(ca, cb),
                                   far_point(ca, cb, far))


class TestSeparatingRows:
    """The separating-row test rejects a displacement pair only with a
    Farkas certificate, and the sign test decides every other pair exactly,
    so stable_intersection agrees with the loop that runs the simplex on
    every pair whose spans fill the space at the reference's random
    displacement of the given seed."""

    @settings(max_examples=40, deadline=None)
    @given(hypersurface_pairs(), st.integers(0, 10 ** 6))
    def test_matches_simplex_on_every_pair(self, ab, seed):
        a, b = ab
        assert cycle_to_dict(stable_intersection(a, b)) \
            == cycle_to_dict(reference_stable_intersection(a, b, seed=seed))

    @settings(max_examples=60, deadline=None)
    @given(hypersurface_pairs())
    def test_rejected_pairs_are_infeasible(self, ab):
        a, b = ab
        separated = _separated_pairs(a.fan, b.fan)
        for i, ca in enumerate(a.fan.cones):
            for j, cb in enumerate(b.fan.cones):
                if separated(i, j):
                    assert not curve_feasible(ca, cb)

    def test_rejects_most_infeasible_pairs_of_a5_b5(self):
        a = tropical_hypersurface(P(A5, tuple("abcde")))
        b = tropical_hypersurface(P(B5, tuple("abcde")))
        separated = _separated_pairs(a.fan, b.fan)
        verdicts = [(separated(i, j), curve_feasible(ca, cb))
                    for i, ca in enumerate(a.fan.cones)
                    for j, cb in enumerate(b.fan.cones)]
        assert not any(rejected and feasible for rejected, feasible in verdicts)
        # of the 420 pairs, 221 do not meet after the shift; rows reject
        # 152 (237 and 145 at the displacement (5, -3, 2, 7, -11))
        assert len(verdicts) == 420
        assert sum(not f for _, f in verdicts) == 221
        assert sum(r for r, _ in verdicts) == 152


class TestOneEliminationPerPair:
    """Tripwire: one pass decides A5 . B5, and each of the 268 pairs no row
    separates takes one elimination of its joint equation rows, whose
    left-hand block also gives the kernel that starts the piece's double
    description pass. No rank is computed and no other echelon form runs:
    268 eliminations in all, where 536 ran while each pass read its kernel
    off a second echelon form of the same rows (268 + 268), 548 under the
    random displacement of seed 0 (274 pairs), and 789 while every pair's
    rows were ranked up front (424 ranks) and the sign test eliminated the
    rows of the 91 full pieces once more."""

    def test_a5_b5(self, monkeypatch):
        import tropfan.cycles
        import tropfan.fans
        import tropfan.linalg
        import tropfan.tropical

        a = tropical_hypersurface(P(A5, tuple("abcde")))
        b = tropical_hypersurface(P(B5, tuple("abcde")))
        calls = {"rational_rank": 0, "_row_echelon": 0, "_echelon_kernel": 0}
        # the joint eliminations are the echelon forms stable_intersection
        # runs itself; a pass whose kernel fans read off a second echelon
        # form would show as a call of _echelon_kernel
        homes = {"rational_rank": (tropfan.linalg, tropfan.fans,
                                   tropfan.cycles, tropfan.tropical),
                 "_row_echelon": (tropfan.tropical,),
                 "_echelon_kernel": (tropfan.fans,)}
        for name, modules in homes.items():
            original = getattr(tropfan.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        stable_intersection(a, b)
        # _echelon_kernel: 268 before the pieces took _solve_shift's kernel
        assert calls == {"rational_rank": 0, "_row_echelon": 268,
                         "_echelon_kernel": 0}


def sign_vectors(ca, cb, tau, split):
    """The coefficient vectors the sign test reads for a pair: a.xs[k] for
    each row a of ca, and b.(xs[k] - s e_(k+1)) for each row b of cb, that
    vanishes at a relative interior point of tau."""
    xs, s = split
    p = relative_interior_point(tau)
    return [[dot(a, x) for x in xs]
            for a in ca.inequalities.entries if not dot(a, p)] \
        + [[dot(b, x) - s * b[k] for k, x in enumerate(xs)]
           for b in cb.inequalities.entries if not dot(b, p)]


def sign_test_pairs(a, b):
    """(ca, cb, tau, split) for every pair of maximal cones of a and b that
    the sign test applies to: spans that fill the space, and an
    intersection tau of the expected dimension."""
    cones_a, cones_b = a.fan.cones, b.fan.cones
    expected = (max(c.dim for c in cones_a) + max(c.dim for c in cones_b)
                - a.ambient_dim)
    out = []
    for ca in cones_a:
        for cb in cones_b:
            shift = _solve_shift(ca, cb)
            if shift is False:
                continue
            tau = intersect(ca, cb)
            if tau.dim >= expected:
                out.append((ca, cb, tau, shift[1]))
    return out


def verdicts(a, b, far=FAR):
    """(sign-test verdict, simplex verdict at v_far) for every pair of
    maximal cones of a and b that the sign test applies to."""
    return [(_displacement_verdict(ca, cb, tau, split),
             curve_feasible(ca, cb, far))
            for ca, cb, tau, split in sign_test_pairs(a, b)]


@st.composite
def curve_hypersurface_pairs(draw):
    """A curve in 3 or 4 variables, the stable intersection of n - 1 drawn
    hypersurfaces, and one more drawn hypersurface: a surface when n = 3."""
    n = draw(st.integers(3, 4))
    variables = tuple("xyzw"[:n])

    def hypersurface():
        exps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n),
                             min_size=2, max_size=4, unique=True))
        coeffs = draw(st.lists(st.integers(1, 3), min_size=len(exps),
                               max_size=len(exps)))
        return tropical_hypersurface(Polynomial(variables,
                                                dict(zip(exps, coeffs))))

    curve = reduce(stable_intersection,
                   [hypersurface() for _ in range(n - 1)])
    return curve, hypersurface()


class TestSignTest:
    """The local sign test against the simplex. On a pair whose spans fill
    the space and whose intersection has the expected dimension, its
    verdict is the simplex's on v(t) in cone_a - cone_b for small t, taken
    at the far point of the curve."""

    @settings(max_examples=60, deadline=None)
    @given(hypersurface_pairs())
    def test_verdicts_match_simplex(self, ab):
        a, b = ab
        for verdict, feasible in verdicts(a, b):
            assert verdict == feasible

    @pytest.mark.parametrize("texts, vs", [
        (("x+y+1", "x*y+x+1"), XY),
        (("x+y+z+1", "x*y+y*z+z+1"), XYZ),
    ], ids=["plane", "space"])
    def test_every_small_displacement(self, texts, vs):
        # the verdict holds at every point v(1/far) of the curve past the
        # bound, not at one of them only; both verdicts occur
        a, b = (tropical_hypersurface(P(t, vs)) for t in texts)
        seen = set()
        for far in (FAR, 3 * FAR, 10 ** 6):
            for verdict, feasible in verdicts(a, b, far):
                assert verdict == feasible
                seen.add(verdict)
        assert seen == {True, False}

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_a4_b4_times_c4(self, seed):
        # the surface A4 . B4 in Q^4 times a third hypersurface: a curve,
        # as the reference gives it at the seed
        vs = XYZW
        surface = stable_intersection(tropical_hypersurface(P(A4, vs)),
                                      tropical_hypersurface(P(B4, vs)))
        c4 = tropical_hypersurface(P(C4, vs))
        got = stable_intersection(surface, c4)
        assert fan_dim(got.fan) == 1
        assert cycle_to_dict(got) \
            == cycle_to_dict(reference_stable_intersection(surface, c4, seed))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_surface_times_surface(self, seed):
        # two surfaces in Q^4 meet in points. 12 pairs of their cones
        # have dependent equation rows and no row separating them, so the
        # elimination skips them, as the reference skips every pair whose
        # spans do not fill the space
        import tropfan.tropical

        vs = XYZW
        a4, b4, c4 = (tropical_hypersurface(P(t, vs)) for t in (A4, B4, C4))
        ab, ac = stable_intersection(a4, b4), stable_intersection(a4, c4)
        skipped = []
        solve = tropfan.tropical._solve_shift

        def counted(ca, cb):
            shift = solve(ca, cb)
            skipped.append(shift is False)
            return shift

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tropfan.tropical, "_solve_shift", counted)
            got = stable_intersection(ab, ac)
        assert sum(skipped) == 12
        assert fan_dim(got.fan) == 0
        assert got.multiplicities == (58,)
        assert cycle_to_dict(got) \
            == cycle_to_dict(reference_stable_intersection(ab, ac, seed))

    @settings(max_examples=25, deadline=None)
    @given(curve_hypersurface_pairs(), st.integers(0, 10 ** 6))
    def test_curve_times_hypersurface_matches_simplex(self, pair, seed):
        curve, surface = pair
        for a, b in ((curve, surface), (surface, curve)):
            assert cycle_to_dict(stable_intersection(a, b)) \
                == cycle_to_dict(reference_stable_intersection(a, b, seed))


class TestSolveShift:
    """The one elimination per pair: a pair whose equation rows are
    dependent is skipped (False), as its spans do not fill the space; a
    pair whose spans fill it gives, for each unit vector e_k, xs[k] in
    span a with xs[k] - s e_k in span b, and the kernel of the joint rows
    that a separate echelon form of them gives."""

    @settings(max_examples=60, deadline=None)
    @given(hypersurface_pairs())
    def test_against_ranks(self, ab):
        a, b = ab
        n = a.ambient_dim
        for ca in a.fan.cones:
            for cb in b.fan.cones:
                got = _solve_shift(ca, cb)
                eqs = ca.equations.entries + cb.equations.entries
                if rational_rank(eqs) < len(eqs):
                    assert got is False
                    continue
                _, (xs, s) = got
                assert s > 0 and len(xs) == n
                for k, x in enumerate(xs):
                    assert not any(dot(e, x) for e in ca.equations.entries)
                    y = [xi - s * (i == k) for i, xi in enumerate(x)]
                    assert not any(dot(e, y) for e in cb.equations.entries)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(hypersurface_pairs(), curve_hypersurface_pairs()))
    def test_kernel_is_the_joint_rows_echelon_kernel(self, ab):
        # the same primitive vectors in the same order, so the pass that
        # starts from them builds the piece a separate elimination built
        a, b = ab
        n = a.ambient_dim
        for ca in a.fan.cones:
            for cb in b.fan.cones:
                got = _solve_shift(ca, cb)
                if got is False:
                    continue
                eqs = ca.equations.entries + cb.equations.entries
                assert got[0] == _echelon_kernel(IntMatrix.from_rows(eqs, n))
                assert len(got[0]) == n - len(eqs)

    def test_rays_of_the_line(self):
        line = tropical_hypersurface(P("x+y+1", XY))
        cones = {c.rays.columns()[0]: c for c in line.fan.cones}
        diagonal = cones[(-1, -1)]
        assert _solve_shift(diagonal, diagonal) is False
        # the x-axis ray and the y-axis ray fill the plane: (t, t^2) is
        # (t, 0) - (0, -t^2)
        kernel, (xs, s) = _solve_shift(cones[(1, 0)], cones[(0, 1)])
        assert s > 0 and xs == [(s, 0), (0, 0)]
        assert kernel == []  # the two rays meet at the origin


class TestDisplacementOnAWall:
    """Seed 990257 drew v = (-928225, -928225) first, when the displacement
    was random. It is parallel to the ray (-1, -1) of Trop(x + y + 1) and on
    the boundary of cone_a - cone_b for the pairs at that ray; counting them
    gave weight 4. The moment curve lies on no wall: no coefficient vector
    the sign test reads is zero, and the weight is the Bezout number 2."""

    def test_first_draw_is_on_a_wall(self):
        rng = random.Random(990257)
        v = tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(2))
        assert v == (-928225, -928225)
        line = tropical_hypersurface(P("x+y+1", XY))
        other = tropical_hypersurface(P("x*y+x+1", XY))
        walls = 0
        for ca, cb, tau, split in sign_test_pairs(line, other):
            rays, lin = displacement_difference(ca, cb)
            facets, _ = reference_dd(rays.columns(), lin.columns(), 2)
            walls += reference_cone_feasible(rays, lin, v) \
                and any(dot(h, v) == 0 for h in facets)
            assert all(any(w) for w in sign_vectors(ca, cb, tau, split))
        assert walls

    @settings(max_examples=60, deadline=None)
    @given(hypersurface_pairs())
    def test_no_sign_is_zero(self, ab):
        for ca, cb, tau, split in sign_test_pairs(*ab):
            assert all(any(w) for w in sign_vectors(ca, cb, tau, split))

    def test_weight_is_the_bezout_number(self):
        line = tropical_hypersurface(P("x+y+1", XY))
        other = tropical_hypersurface(P("x*y+x+1", XY))
        got = stable_intersection(line, other)
        assert got.multiplicities == (2,)
        assert cycle_to_dict(got) \
            == cycle_to_dict(reference_stable_intersection(line, other, 0))

    def test_reference_draws_again_off_the_wall(self):
        # the reference's first draw at seed 990257 is the wall vector
        # above; counting its wall pairs gave weight 4 until the reference
        # rejected a draw on a facet hyperplane of some ca - cb
        line = tropical_hypersurface(P("x+y+1", XY))
        other = tropical_hypersurface(P("x*y+x+1", XY))
        got = reference_stable_intersection(line, other, 990257)
        assert got.multiplicities == (2,)
        assert cycle_to_dict(got) \
            == cycle_to_dict(stable_intersection(line, other))


class TestDisplacementInADeficientSpan:
    """The pair of (-1, -1) rays of Trop(x + y + 1) and itself has spans
    that do not fill the plane. Seed 990257 drew a random displacement in
    their joint span, which was not generic and was drawn again. The moment
    curve leaves that span, so the pair is skipped, and the line meets
    itself at the origin with weight 1."""

    def test_diagonal_pair_is_skipped(self):
        line = tropical_hypersurface(P("x+y+1", XY))
        cones = line.fan.cones
        k = next(i for i, c in enumerate(cones)
                 if c.rays.columns() == [(-1, -1)])
        assert _solve_shift(cones[k], cones[k]) is False
        assert not curve_feasible(cones[k], cones[k])
        got = stable_intersection(line, line)
        assert got.fan.maximal_cones == ((),)
        assert got.fan.rays.ncols == 0 and got.fan.lineality.ncols == 0
        assert got.multiplicities == (1,)


class TestVariableOrderInvariance:
    """The moment curve depends on the order of the variables; the answer
    must not. Permuting the variables of both inputs, and swapping the
    arguments, gives the same canonical JSON once the permutation is
    undone."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(hypersurface_pairs(), curve_hypersurface_pairs()),
           st.data())
    def test_permuted_and_swapped(self, ab, data):
        a, b = ab
        n = a.ambient_dim
        perm = data.draw(st.permutations(range(n)))
        back = [perm.index(k) for k in range(n)]
        want = cycle_to_dict(stable_intersection(a, b))
        assert cycle_to_dict(stable_intersection(b, a)) == want
        pa, pb = permuted_cycle(a, perm), permuted_cycle(b, perm)
        for x, y in ((pa, pb), (pb, pa)):
            assert cycle_to_dict(permuted_cycle(stable_intersection(x, y),
                                                back)) == want


class TestLinearSpaceOracle:
    """Known answer: the hypersurfaces of generic linear forms meet
    transversally, so their stable intersection is the tropical variety of
    the linear space they cut out (Maclagan and Sturmfels, Introduction to
    Tropical Geometry, Section 3.6), which the Gröbner pipeline computes."""

    @pytest.mark.parametrize("variables, forms", [
        ("xyz", ("x+y+z+1", "x+2*y+3*z+5")),
        ("xyzw", ("x+y+z+w", "x+2*y+3*w")),
        ("abcde", ("a+b+c+d+e", "a+2*b+3*c+5*d+7*e")),
        ("xyzw", ("x+y+z+w+1", "x+2*y+3*z+5*w+7")),
    ], ids=["plane_pair3", "linear_pair4", "linear5", "affine_pair4"])
    def test_stable_intersection_is_the_variety(self, variables, forms):
        vs = tuple(variables)
        polys = [P(f, vs) for f in forms]
        want = cycle_to_dict(tropical_variety(ideal(vs, tuple(polys))))
        hypersurfaces = [tropical_hypersurface(f) for f in polys]
        assert cycle_to_dict(stable_intersection(*hypersurfaces)) == want


class TestVarietySupportOracle:
    def test_fan_membership_matches_initial_ideal_test(self):
        # differential check bypassing the fan pipeline: membership in the
        # computed variety equals monomial-freeness of the initial ideal at
        # a fresh weight-adapted basis, on generic and wall-biased points
        from tropfan.corpus import PRIME_CORPUS
        from tropfan.groebner import (
            initial_ideal,
            is_monomial_free,
            reduced_groebner_basis,
        )
        rng = random.Random(314159)
        for entry in PRIME_CORPUS:
            spec = entry.ideal()
            spec_h = homogenize(spec)
            cycle = groebner_route_variety(spec)
            n = len(spec.variables)
            for _ in range(40):
                if rng.random() < 0.5:
                    w = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 4))
                              for _ in range(n))
                else:
                    w = tuple(Fraction(rng.choice([-2, -1, -1, 0, 0, 1, 1, 2]))
                              for _ in range(n))
                wh = (Fraction(0),) + w
                gb = reduced_groebner_basis(spec_h, TermOrder((wh,)))
                direct = is_monomial_free(initial_ideal(gb, wh))
                assert support_contains(cycle.fan, w) == direct, (entry.name, w)


class TestTorusCurveCounts:
    # complete intersections whose torus points are unions of 1-parameter
    # subgroup translates: the cell is the diagonal line, the weight counts
    # the translates
    def test_diagonal_line(self):
        c = tropical_variety(ideal(XYZ, (P("x-y", XYZ), P("y-z", XYZ))))
        assert c.fan.lineality.columns() == [(1, 1, 1)]
        assert c.fan.maximal_cones == ((),)
        assert c.multiplicities == (1,)
        assert is_balanced(c)

    def test_square_root_pair(self):
        c = tropical_variety(ideal(XYZ, (P("x^2-y^2", XYZ), P("y-z", XYZ))))
        assert c.multiplicities == (2,)
        assert c.fan.lineality.columns() == [(1, 1, 1)]

    def test_cube_root_triple(self):
        c = tropical_variety(ideal(XYZ, (P("x^3-y^3", XYZ), P("y-z", XYZ))))
        assert c.multiplicities == (3,)

    def test_plane_section_of_conic(self):
        c = tropical_variety(
            ideal(XYZ, (P("x-y", XYZ), P("x^2+y^2+z^2", XYZ))))
        assert c.multiplicities == (2,)
        assert is_balanced(c)

    def test_quadric_pair_three_lines(self):
        c = tropical_variety(
            ideal(XYZ, (P("x^2-y*z", XYZ), P("x*y-z^2", XYZ))))
        assert c.multiplicities == (3,)
        assert c.fan.lineality.columns() == [(1, 1, 1)]
        assert is_balanced(c)


class TestNonPureVariety:
    def test_plane_union_line_is_not_pure(self):
        # product of a plane ideal and a vertical-line ideal: the tropical
        # variety is a 2-dimensional fan plus one isolated downward ray
        g1 = P("(x+y+z+1)*(x-2)", XYZ)
        g2 = P("(x+y+z+1)*(y-3)", XYZ)
        c = tropical_variety(ideal(XYZ, (g1, g2)))
        assert isinstance(c, TropicalCycle)
        assert not c.pure
        dims = sorted({cone.dim for cone in c.fan.cones})
        assert dims == [1, 2]
        assert support_contains(c.fan, (0, 0, -1))
        assert support_contains(c.fan, (0, 0, 1))
        assert not support_contains(c.fan, (1, 2, 3))
        with pytest.raises(NotPureError):
            is_balanced(c)


class TestVarietyBalancing:
    def test_small_cases_balanced(self):
        cases = [
            (XY, ("x+y+1",)),
            (XYZ, ("x+y+z",)),
            (XY, ("x*y-1",)),
            (XYZ, ("x+y+z", "x^2+y^2+z^2")),
        ]
        for vs, texts in cases:
            spec = ideal(vs, tuple(P(t, vs) for t in texts))
            c = groebner_route_variety(spec)
            assert is_balanced(c), texts


def plucker_permutation(sigma):
    """The permutation of the coordinates that sigma, a map on {1..5},
    induces: p_ij goes to p_sigma(i)sigma(j), up to a sign the tropical
    variety does not see."""
    return [PLUCKER_PAIRS.index(tuple(sorted((sigma[i], sigma[j]))))
            for i, j in PLUCKER_PAIRS]


def permuted_cycle(cycle, perm):
    """The cycle with coordinate k of every vector moved to perm[k]."""
    def move(v):
        out = [0] * len(v)
        for k, x in enumerate(v):
            out[perm[k]] = x
        return tuple(out)

    fan = cycle.fan
    lin = [move(l) for l in fan.lineality.columns()]
    pairs = [(cone_from_generators([move(fan.rays.column(j)) for j in idx],
                                   lin, fan.ambient_dim), m)
             for idx, m in zip(fan.maximal_cones, cycle.multiplicities)]
    return weighted_from_cones(fan.ambient_dim, pairs, cycle.convention)


# a transposition and a 5-cycle, which generate S_5
S5_GENERATORS = ({1: 2, 2: 1, 3: 3, 4: 4, 5: 5},
                 {1: 2, 2: 3, 3: 4, 4: 5, 5: 1})


class TestGrassmannian25:
    """Known answer: the tropical Grassmannian G(2,5) is the space of
    phylogenetic trees on five leaves (Speyer and Sturmfels, "The tropical
    Grassmannian", 2004). Modulo a five-dimensional lineality it is the cone
    over the Petersen graph: 10 rays, 15 two-ray cones of weight 1."""

    @pytest.fixture(scope="class")
    def cycle(self):
        return tropical_variety(plucker_ideal())

    def test_canonical_bytes(self, cycle):
        # the bytes `variety --format json` writes for the ideal
        text = dumps_canonical(cycle_to_dict(cycle))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "e8a79da7b8beb08a1fc21d5a811f6b65720482e70efa3d967f126da776532be2"

    def test_space_of_phylogenetic_trees(self, cycle):
        # the rays, cells and weights from the combinatorics alone, with no
        # Gröbner fan: 10 splits and 15 trees of weight 1
        trees = phylogenetic_trees()
        assert trees.fan.rays.ncols == 10
        assert trees.multiplicities == (1,) * 15
        assert cycle_to_dict(trees) == cycle_to_dict(cycle)

    def test_plucker_relations_are_a_tropical_basis(self):
        # Speyer and Sturmfels: the three-term Plücker relations form a
        # tropical basis of the Grassmannian G(2,n)
        assert is_tropical_basis(list(plucker_ideal().generators))

    def test_petersen_graph(self, cycle):
        fan = cycle.fan
        assert fan.rays.ncols == 10
        assert len(fan.maximal_cones) == 15
        assert cycle.multiplicities == (1,) * 15
        assert fan.lineality.ncols == 5
        assert cycle.pure and fan_dim(cycle.fan) == 7
        assert all(len(c) == 2 for c in fan.maximal_cones)
        neighbours = {v: set() for v in range(10)}
        for u, v in fan.maximal_cones:
            neighbours[u].add(v)
            neighbours[v].add(u)
        assert all(len(n) == 3 for n in neighbours.values())
        # no triangle: adjacent rays share no neighbour; no 4-cycle: two
        # rays share at most one
        for u in range(10):
            for v in range(u + 1, 10):
                common = neighbours[u] & neighbours[v]
                assert len(common) <= (0 if v in neighbours[u] else 1)
        assert is_balanced(cycle)

    def test_degree_in_one_stable_intersection(self, cycle):
        # the 7-dimensional variety meets the tropical linear space L_3, the
        # 3-dimensional cones on any 3 of the 11 rays e_1, ..., e_10,
        # -(1, ..., 1) with weight 1, in the origin, weighted by the degree
        # 5 of G(2,5) (Speyer, "Tropical linear spaces", 2008)
        n = cycle.ambient_dim
        rays = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        rays.append((-1,) * n)
        linear = weighted_from_cones(
            n, [(cone_from_generators(list(c), [], n), 1)
                for c in combinations(rays, 3)], "min")
        assert len(linear.fan.maximal_cones) == 165
        point = stable_intersection(cycle, linear)
        assert point.fan.maximal_cones == ((),)
        assert point.fan.lineality.ncols == 0
        assert point.multiplicities == (5,)

    @pytest.mark.parametrize("sigma", S5_GENERATORS)
    def test_symmetric_under_s5(self, cycle, sigma):
        image = permuted_cycle(cycle, plucker_permutation(sigma))
        assert cycle_to_dict(image) == cycle_to_dict(cycle)

    def test_permuted_coordinates(self, cycle):
        # swapping p12 and p45 alone is no symmetry of the ideal: the walk
        # meets another Gröbner fan, whose variety is the permuted cycle
        perm = (9,) + tuple(range(1, 9)) + (0,)
        assert cycle_to_dict(tropical_variety(plucker_ideal(perm))) \
            == cycle_to_dict(permuted_cycle(cycle, perm))
