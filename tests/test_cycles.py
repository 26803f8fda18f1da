import json
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropfan.corpus import PRIME_CORPUS
from tropfan.cycles import (
    TropicalCycle,
    cycle_dim,
    cycle_from_dict,
    cycle_to_dict,
    fan_to_dict,
    is_balanced,
    lineality_space,
    make_cycle,
    max_cones,
    multiplicities,
    rays,
    span_lattice_basis,
    swap_convention,
    weighted_from_cones,
)
from tropfan.errors import (
    CycleSchemaError,
    DimMismatchError,
    MultiplicityMismatchError,
    NotPureError,
)
from tropfan.fans import (
    cone_from_generators,
    faces,
    facets_by_key,
    fan_cones,
    fan_from_cones,
)
from tropfan.linalg import (
    IntMatrix,
    dot,
    hermite_basis,
    int_inverse,
    saturate_lattice,
    smith_normal_form,
    solve_rational,
    vec_neg,
)
from tropfan.polynomials import Polynomial
from tropfan.tropical import tropical_hypersurface, tropical_variety

from oracles import quotient_normal_vector, reference_is_balanced

def line_fan():
    cones = [cone_from_generators([r], [], 2)
             for r in [(1, 0), (0, 1), (-1, -1)]]
    fan, _ = fan_from_cones(2, cones)
    return fan


def plane_curve_cycle(mults=(1, 1, 1)):
    cones = [cone_from_generators([r], [(1, 1, 1)], 3)
             for r in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    fan, _ = fan_from_cones(3, cones)
    return make_cycle(fan, mults, "min")


class TestMakeCycle:
    def test_line_cycle(self):
        c = make_cycle(line_fan(), [1, 1, 1], "min")
        assert multiplicities(c) == [1, 1, 1]
        assert cycle_dim(c) == 1

    def test_unbalanced_construction_succeeds(self):
        c = make_cycle(line_fan(), [2, 1, 1], "min")
        assert multiplicities(c) == [2, 1, 1]

    def test_count_mismatch(self):
        # counted before any zero weight drops its cone
        for mults in ([1, 1], [1, 0]):
            with pytest.raises(MultiplicityMismatchError,
                               match="^3 maximal cones but 2 multiplicities$"):
                make_cycle(line_fan(), mults, "min")

    def test_negative_rejected(self):
        with pytest.raises(MultiplicityMismatchError,
                           match="^multiplicities must be positive$"):
            make_cycle(line_fan(), [1, -1, 1], "min")

    @pytest.mark.parametrize("first", [1.7, "2", 2.0, True],
                             ids=["float", "str", "integral_float", "bool"])
    def test_non_integer_rejected(self, first):
        # refused, not cast, as the JSON reader refuses them
        with pytest.raises(MultiplicityMismatchError,
                           match="^multiplicities must be integers$"):
            make_cycle(line_fan(), [first, 1, 1], "min")

    def test_zero_weight_cone_dropped(self):
        c = make_cycle(line_fan(), [1, 0, 1], "min")
        assert len(c.fan.maximal_cones) == 2
        assert multiplicities(c) == [1, 1]

    def test_non_pure_rejected(self):
        mixed, _ = fan_from_cones(
            2, [cone_from_generators([(1, 0), (0, 1)], [], 2),
                cone_from_generators([(-1, -1)], [], 2)])
        with pytest.raises(NotPureError):
            make_cycle(mixed, [1, 1], "min")
        # the constructor checks only weight counts; purity is derived
        assert not TropicalCycle(mixed, (1, 1), "min").pure
        assert TropicalCycle(line_fan(), (1, 1, 1), "min").pure
        with pytest.raises(MultiplicityMismatchError):
            TropicalCycle(line_fan(), (1, 1), "min")


class TestBalancing:
    def test_tropical_line(self):
        assert is_balanced(make_cycle(line_fan(), [1, 1, 1], "min"))

    def test_perturbed_weights(self):
        assert not is_balanced(make_cycle(line_fan(), [2, 1, 1], "min"))

    def test_lineality_line_any_weight(self):
        lfan, _ = fan_from_cones(2, [cone_from_generators([], [(1, -1)], 2)])
        assert is_balanced(make_cycle(lfan, [7], "min"))

    def test_plane_curve(self):
        assert is_balanced(plane_curve_cycle())
        assert is_balanced(plane_curve_cycle((2, 2, 2)))
        assert not is_balanced(plane_curve_cycle((1, 2, 1)))

    def test_invariant_under_swap(self):
        for mults in [(1, 1, 1), (2, 1, 1)]:
            c = make_cycle(line_fan(), mults, "min")
            assert is_balanced(c) == is_balanced(swap_convention(c))

    def test_invariant_under_subdivision(self):
        # the balanced line {w1 + w2 = 0} split at the origin into two rays
        whole, _ = fan_from_cones(2, [cone_from_generators([], [(1, -1)], 2)])
        split, _ = fan_from_cones(2, [cone_from_generators([(1, -1)], [], 2),
                                      cone_from_generators([(-1, 1)], [], 2)])
        assert is_balanced(make_cycle(whole, [3], "min"))
        assert is_balanced(make_cycle(split, [3, 3], "min"))
        # the tropical plane with one 2-cell split by an interior ray
        e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        neg = (-1, -1, -1)
        plane_pairs = [(e1, e2), (e1, e3), (e2, e3),
                       (e1, neg), (e2, neg), (e3, neg)]
        base = [cone_from_generators(list(pair), [], 3)
                for pair in plane_pairs]
        mid = (1, 1, 0)
        split3 = base[1:] + [cone_from_generators([e1, mid], [], 3),
                             cone_from_generators([mid, e2], [], 3)]
        f_base, _ = fan_from_cones(3, base, drop_contained=False)
        f_split, _ = fan_from_cones(3, split3, drop_contained=False)
        assert is_balanced(make_cycle(f_base, [1] * 6, "min"))
        assert is_balanced(make_cycle(f_split, [1] * 7, "min"))

    def test_non_pure_refused(self):
        mixed, _ = fan_from_cones(
            2, [cone_from_generators([(1, 0), (0, 1)], [], 2),
                cone_from_generators([(-1, -1)], [], 2)])
        c = TropicalCycle(mixed, (1, 1), "min")
        assert not c.pure
        with pytest.raises(NotPureError):
            is_balanced(c)

    def test_empty_cycle_balanced(self):
        from tropfan.linalg import IntMatrix
        from tropfan.fans import Fan
        empty = IntMatrix.from_columns([], 2)
        c = TropicalCycle(Fan(2, empty, empty, ()), (), "min")
        assert is_balanced(c)


class TestSwapConvention:
    def test_line(self):
        c = make_cycle(line_fan(), [1, 1, 1], "min")
        sw = swap_convention(c)
        assert sw.convention == "max"
        assert rays(sw).columns() == [(-1, 0), (0, -1), (1, 1)]
        assert multiplicities(sw) == [1, 1, 1]

    def test_involution(self):
        c = make_cycle(line_fan(), [3, 1, 2], "min")
        assert swap_convention(swap_convention(c)) == c

    def test_origin_cycle(self):
        ofan, _ = fan_from_cones(2, [cone_from_generators([], [], 2)])
        c = make_cycle(ofan, [2], "min")
        sw = swap_convention(c)
        assert sw.convention == "max"
        assert sw.fan == ofan


class TestAccessors:
    def test_line_accessors(self):
        c = make_cycle(line_fan(), [1, 1, 1], "min")
        assert sorted(rays(c).columns()) == [(-1, -1), (0, 1), (1, 0)]
        assert lineality_space(c).ncols == 0
        assert max_cones(c) == [[0], [1], [2]]
        assert multiplicities(c) == [1, 1, 1]
        assert cycle_dim(c) == 1

    def test_plane_curve_dim_counts_lineality(self):
        assert cycle_dim(plane_curve_cycle()) == 2


class TestJson:
    def test_round_trip(self):
        c = make_cycle(line_fan(), [1, 1, 1], "min")
        data = json.loads(json.dumps(cycle_to_dict(c)))
        assert cycle_from_dict(data) == c

    def test_weighted_round_trip(self):
        c = plane_curve_cycle((2, 2, 2))
        assert cycle_from_dict(cycle_to_dict(c)) == c

    def test_schema_fields(self):
        d = cycle_to_dict(make_cycle(line_fan(), [1, 1, 1], "min"))
        assert set(d) == {"convention", "ambient_dim", "rays", "lineality",
                          "maximal_cones", "multiplicities", "dim", "pure"}
        assert d["rays"] == [[-1, -1], [0, 1], [1, 0]]
        assert d["dim"] == 1
        assert d["pure"] is True

    def test_mult_length_mismatch(self):
        d = cycle_to_dict(make_cycle(line_fan(), [1, 1, 1], "min"))
        d["multiplicities"] = [1, 1]
        with pytest.raises(CycleSchemaError) as e:
            cycle_from_dict(d)
        assert e.value.field == "multiplicities"

    def test_negative_multiplicity(self):
        d = cycle_to_dict(make_cycle(line_fan(), [1, 1, 1], "min"))
        d["multiplicities"] = [1, -1, 1]
        with pytest.raises(CycleSchemaError):
            cycle_from_dict(d)

    def test_missing_field(self):
        d = cycle_to_dict(make_cycle(line_fan(), [1, 1, 1], "min"))
        del d["lineality"]
        with pytest.raises(CycleSchemaError) as e:
            cycle_from_dict(d)
        assert e.value.field == "lineality"

    def test_missing_weights_rejected_when_required(self):
        d = fan_to_dict(line_fan(), "min")
        with pytest.raises(CycleSchemaError):
            cycle_from_dict(d, require_weights=True)
        fan = cycle_from_dict(d, require_weights=False)
        assert fan == line_fan()

    def test_bad_ray_index(self):
        d = cycle_to_dict(make_cycle(line_fan(), [1, 1, 1], "min"))
        d["maximal_cones"] = [[0], [1], [9]]
        with pytest.raises(CycleSchemaError):
            cycle_from_dict(d)

    def test_non_canonical_input_normalized(self):
        d = {
            "convention": "min",
            "ambient_dim": 2,
            "rays": [[2, 0], [0, 3], [-5, -5]],
            "lineality": [],
            "maximal_cones": [[0], [1], [2]],
            "multiplicities": [1, 1, 1],
            "dim": 1,
            "pure": True,
        }
        c = cycle_from_dict(d)
        assert rays(c).columns() == [(-1, -1), (0, 1), (1, 0)]


class TestWeightedFromCones:
    def test_duplicate_merge(self):
        a = cone_from_generators([(1, 0)], [], 2)
        b = cone_from_generators([(1, 0)], [], 2)
        c = weighted_from_cones(2, [(a, 2), (b, 3)], "min",
                                merge_duplicates=True)
        assert multiplicities(c) == [5]

    def test_duplicate_error(self):
        a = cone_from_generators([(1, 0)], [], 2)
        with pytest.raises(MultiplicityMismatchError):
            weighted_from_cones(2, [(a, 2), (a, 3)], "min",
                                merge_duplicates=False)

    def test_non_pure_cycle_is_not_pure(self):
        cones = [(cone_from_generators([(1, 0), (0, 1)], [], 2), 1),
                 (cone_from_generators([(-1, -1)], [], 2), 1)]
        out = weighted_from_cones(2, cones, "min")
        assert isinstance(out, TropicalCycle)
        assert not out.pure
        assert multiplicities(out) == [1, 1]
        # its JSON round trip keeps the cycle and the flag
        data = cycle_to_dict(out)
        assert data["pure"] is False
        assert cycle_from_dict(data) == out


def reference_quotient_normal_vector(sigma, tau):
    """The earlier route, kept as an oracle: lattice bases of both spans,
    tau's basis in sigma's coordinates, a Smith form whose last column
    completes it, and the sign taken from an inequality of sigma tight on
    tau."""
    b_sigma = span_lattice_basis(sigma)
    b_tau = span_lattice_basis(tau)
    d = b_sigma.ncols
    assert b_tau.ncols == d - 1
    coords = []
    for col in b_tau.columns():
        x = solve_rational(b_sigma.entries, col)
        assert x is not None and all(v.denominator == 1 for v in x)
        coords.append(tuple(v.numerator for v in x))
    _, p, _ = smith_normal_form(IntMatrix.from_columns(coords, d))
    v = b_sigma.mul_vec(int_inverse(p).column(d - 1))
    for a in sigma.inequalities.entries:
        if all(dot(a, g) == 0 for g in tau.rays.columns()) and \
                all(dot(a, g) == 0 for g in tau.lineality.columns()):
            s = dot(a, v)
            if s != 0:
                return v if s > 0 else vec_neg(v)
    raise AssertionError("no inequality of sigma is tight exactly on tau")


def facet_pairs(cycle):
    """The (sigma, tau) pairs that is_balanced visits."""
    cones = fan_cones(cycle.fan)
    taus = {}
    for c in cones:
        if c.dim > 0:
            for tau in faces(c, 1):
                taus[(tau.rays.entries, tau.lineality.entries)] = tau
    return [(sigma, tau) for tau in taus.values() for sigma in cones
            if sigma.dim == tau.dim + 1 and sigma.contains_cone(tau)]


def assert_matches_reference(sigma, tau):
    v = quotient_normal_vector(sigma, tau)
    ref = reference_quotient_normal_vector(sigma, tau)
    # the same class modulo span tau (sign included), inside span sigma
    diff = [x - y for x, y in zip(v, ref)]
    assert all(dot(row, diff) == 0 for row in tau.equations.entries)
    assert all(dot(row, v) == 0 for row in sigma.equations.entries)
    assert any(dot(row, v) != 0 for row in tau.equations.entries)


small_supports3 = st.lists(st.tuples(*[st.integers(0, 3)] * 3),
                           min_size=2, max_size=5, unique=True)
small_vecs4 = st.lists(
    st.tuples(*[st.integers(-3, 3)] * 4), min_size=1, max_size=5)
small_lins4 = st.lists(
    st.tuples(*[st.integers(-3, 3)] * 4), min_size=0, max_size=2)


class TestQuotientNormalVector:
    """The representative of an off-facet ray modulo span tau agrees with the
    earlier Smith-form route on every facet that balancing visits."""

    def test_corpus_varieties(self):
        checked = 0
        for entry in PRIME_CORPUS:
            for sigma, tau in facet_pairs(tropical_variety(entry.ideal())):
                assert_matches_reference(sigma, tau)
                checked += 1
        assert checked > 0

    @settings(max_examples=60, deadline=None)
    @given(small_supports3)
    # the tropical plane; a hypersurface with a lineality line
    @example([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    @example([(0, 0, 0), (2, 1, 0), (0, 0, 3)])
    def test_hypersurface_cycles(self, support):
        f = Polynomial(("x", "y", "z"), {e: 1 for e in support})
        for sigma, tau in facet_pairs(tropical_hypersurface(f)):
            assert_matches_reference(sigma, tau)

    @settings(max_examples=60, deadline=None)
    @given(small_vecs4, small_lins4)
    # a simplicial cone; a square pyramid (two rays off each facet); a
    # half-plane over a lineality line
    @example([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], [])
    @example([(1, 0, 0, 1), (0, 1, 0, 1), (-1, 0, 0, 1), (0, -1, 0, 1)], [])
    @example([(1, 2, 0, 0)], [(0, 1, 3, 0)])
    def test_cone_facets(self, ray_list, lin_list):
        sigma = cone_from_generators([r for r in ray_list if any(r)],
                                     [l for l in lin_list if any(l)], 4)
        if sigma.dim == 0:
            return
        for tau in faces(sigma, 1):
            assert_matches_reference(sigma, tau)

    def test_non_facet_rejected(self):
        sigma = cone_from_generators([(1, 0), (0, 1)], [], 2)
        # a ray through the interior, the apex (codimension two), the whole
        # cone, and a ray outside it
        for tau in ([(1, 1)], [], [(1, 0), (0, 1)], [(-1, 0)]):
            with pytest.raises(DimMismatchError):
                quotient_normal_vector(sigma, cone_from_generators(tau, [], 2))
        # same rays, different lineality
        wedge = cone_from_generators([(1, 0, 0)], [(0, 0, 1)], 3)
        with pytest.raises(DimMismatchError):
            quotient_normal_vector(wedge, cone_from_generators([], [], 3))


class TestBalancingByIncidence:
    """is_balanced finds the cones around each facet from facet keys; the
    oracle scans every cone with contains_cone."""

    def test_matches_reference_on_corpus(self):
        """Balanced corpus varieties, and each with one weight raised."""
        checked = 0
        for entry in PRIME_CORPUS:
            cycle = tropical_variety(entry.ideal())
            assert is_balanced(cycle) == reference_is_balanced(cycle) is True
            for i in range(cycle.fan.n_maximal()):
                mults = list(cycle.multiplicities)
                mults[i] += 1
                bumped = make_cycle(cycle.fan, mults, "min")
                assert is_balanced(bumped) == reference_is_balanced(bumped)
                checked += not is_balanced(bumped)
        assert checked > 0

    @settings(max_examples=40, deadline=None)
    @given(small_supports3, st.lists(st.integers(1, 3), min_size=10,
                                     max_size=10))
    # the tropical plane, unit weights and one weight raised
    @example([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [1] * 10)
    @example([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [2] + [1] * 9)
    def test_matches_reference_on_reweighted_hypersurfaces(self, support,
                                                           weights):
        # at most 5 terms, so at most 10 maximal cones
        cycle = tropical_hypersurface(
            Polynomial(("x", "y", "z"), {e: 1 for e in support}))
        reweighted = make_cycle(cycle.fan, weights[:cycle.fan.n_maximal()])
        for c in (cycle, reweighted):
            assert is_balanced(c) == reference_is_balanced(c)

    def test_walks_incidences_without_containment_scans(self, monkeypatch):
        from tropfan.fans import Cone
        cycle = tropical_variety(
            next(e for e in PRIME_CORPUS if e.name == "space_conic").ideal())
        calls = []
        original = Cone.contains_cone

        def counted(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(Cone, "contains_cone", counted)
        assert is_balanced(cycle)
        assert calls == []


def non_primitive_incidences(cycle):
    """How many (cone, facet) incidences have an off-facet ray that is not
    the lattice normal: the facet's rays, the lineality and that ray span a
    lattice that is not saturated."""
    n = cycle.ambient_dim
    count = 0
    for c in fan_cones(cycle.fan):
        rays, lin = c.generators()
        for _, a, _ in facets_by_key(c):
            tight = [r for r in rays if dot(a, r) == 0]
            off = next(r for r in rays if dot(a, r) != 0)
            gens = IntMatrix.from_columns(tight + lin + [off], n)
            count += hermite_basis(gens) != saturate_lattice(gens)
    return count


# the tropical surface of 1 + x + y + x*y*z^3: the Newton polytope is a
# simplex of normalized volume 3, and the two rays of each cone span a
# sublattice of index 3 in the lattice of its plane
INDEX3_RAYS = [(-3, -3, 1), (0, 0, 1), (0, 3, -1), (3, 0, -1)]

# four terms in four variables whose tropical hypersurface has a lineality
# line and no incidence at which the off-facet ray is the lattice normal
LINEALITY_SUPPORT = [(0, 0, 0, 0), (1, 3, 3, 1), (2, 1, 0, 2), (3, 1, 3, 0)]

supports4 = st.lists(st.tuples(*[st.integers(0, 3)] * 4),
                     min_size=4, max_size=4, unique=True)


class TestBalancingByEquationImages:
    """is_balanced maps Z^n / L_tau onto Z^k by one integer kernel of tau's
    rays and the lineality, and reduces each off-facet ray's image to its
    primitive vector. These cycles have facets whose lattice normal is not
    the off-facet ray itself; the oracle reduces modulo span tau instead."""

    def test_facet_lattices_of_index_three(self):
        fan, _ = fan_from_cones(3, [cone_from_generators(list(pair), [], 3)
                                    for pair in combinations(INDEX3_RAYS, 2)])
        unit = make_cycle(fan, [1] * 6)
        # every one of the 6 cones meets 2 facets, none of them primitively
        assert non_primitive_incidences(unit) == 12
        assert is_balanced(unit)
        verdicts = set()
        for weights in product((1, 2), repeat=6):
            cycle = make_cycle(fan, weights)
            verdicts.add(is_balanced(cycle))
            assert is_balanced(cycle) == reference_is_balanced(cycle), weights
        assert verdicts == {True, False}

    def test_surface_cycle_is_the_hypersurface(self):
        f = Polynomial(("x", "y", "z"),
                       {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1,
                        (1, 1, 3): 1})
        cycle = tropical_hypersurface(f)
        assert sorted(cycle.fan.rays.columns()) == sorted(INDEX3_RAYS)
        assert cycle.multiplicities == (1,) * 6

    def test_lineality_example(self):
        cycle = tropical_hypersurface(Polynomial(
            ("x", "y", "z", "w"), {e: 1 for e in LINEALITY_SUPPORT}))
        assert cycle.fan.lineality.ncols == 1
        assert cycle.fan.n_maximal() == 6
        assert non_primitive_incidences(cycle) == 12

    @settings(max_examples=40, deadline=None)
    @given(supports4, st.lists(st.integers(1, 3), min_size=6, max_size=6))
    @example(LINEALITY_SUPPORT, [1] * 6)
    @example(LINEALITY_SUPPORT, [2] + [1] * 5)
    def test_matches_reference_with_lineality(self, support, weights):
        # four terms in four variables: three-dimensional cones around a
        # lineality space, at most 6 of them; about half of such supports
        # have a facet whose lattice normal is not its off-facet ray
        cycle = tropical_hypersurface(
            Polynomial(("x", "y", "z", "w"), {e: 1 for e in support}))
        assert is_balanced(cycle)
        reweighted = make_cycle(cycle.fan, weights[:cycle.fan.n_maximal()])
        for c in (cycle, reweighted):
            assert is_balanced(c) == reference_is_balanced(c)
