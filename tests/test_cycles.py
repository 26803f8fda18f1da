import json

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
    quotient_normal_vector,
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
    fan_cones,
    fan_from_cones,
)
from tropfan.linalg import (
    IntMatrix,
    dot,
    int_inverse,
    smith_normal_form,
    solve_rational,
    vec_neg,
)
from tropfan.polynomials import Polynomial
from tropfan.tropical import tropical_hypersurface, tropical_variety


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
        with pytest.raises(MultiplicityMismatchError):
            make_cycle(line_fan(), [1, 1], "min")

    def test_negative_rejected(self):
        with pytest.raises(MultiplicityMismatchError):
            make_cycle(line_fan(), [1, -1, 1], "min")

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
        # the dataclass checks only weight counts; purity is derived
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

