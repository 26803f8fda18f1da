import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropfan.errors import BadCodimError, DimMismatchError
from tropfan.fans import (
    Fan,
    all_faces,
    common_refinement,
    cone_from_generators,
    cone_from_halfspaces,
    cone_key,
    faces,
    facets_by_key,
    facets_with_normals,
    fan_cone,
    fan_cones,
    fan_dim,
    fan_from_cones,
    intersect,
    intersection_by_key,
    is_pure,
    relative_interior_point,
    slice_first_coordinate,
    support_contains,
    validate_fan,
)
from tropfan.linalg import dot

from oracles import reference_fan_cone

def line_fan():
    cones = [cone_from_generators([r], [], 2)
             for r in [(-1, -1), (1, 0), (0, 1)]]
    fan, _ = fan_from_cones(2, cones)
    return fan


def quadrant_fan():
    quads = [[(1, 0), (0, 1)], [(0, 1), (-1, 0)],
             [(-1, 0), (0, -1)], [(0, -1), (1, 0)]]
    fan, _ = fan_from_cones(2, [cone_from_generators(q, [], 2) for q in quads])
    return fan


class TestDualDescription:
    def test_quadrant_from_rays(self):
        c = cone_from_generators([(1, 0), (0, 1)], [], 2)
        assert sorted(c.inequalities.entries) == [(0, 1), (1, 0)]
        assert c.equations.nrows == 0

    def test_halfspace_from_inequality(self):
        c = cone_from_halfspaces([(1, 0)], [], 2)
        assert c.rays.columns() == [(1, 0)]
        assert c.lineality.columns() == [(0, 1)]

    def test_spanning_rays_give_full_plane(self):
        c = cone_from_generators([(-1, -1), (1, 0), (0, 1)], [], 2)
        assert c.inequalities.nrows == 0
        assert c.equations.nrows == 0
        assert c.dim == 2
        for target in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
            assert c.contains(target)

    def test_round_trip(self):
        cones = [
            ([(1, 0), (0, 1)], []),
            ([(1, 2), (2, 1)], []),
            ([(1, 1)], [(1, -1)]),
            ([(-1, -1)], []),
            ([], [(1, 2)]),
        ]
        for ray_list, lin_list in cones:
            c = cone_from_generators(ray_list, lin_list, 2)
            again = cone_from_generators(
                c.rays.columns(), c.lineality.columns(), 2)
            assert again == c
            via_h = cone_from_halfspaces(
                list(c.inequalities.entries), list(c.equations.entries), 2)
            assert via_h == c

    def test_empty_input_is_origin(self):
        c = cone_from_generators([], [], 3)
        assert c.dim == 0
        assert c.rays.ncols == 0
        assert c.lineality.ncols == 0
        assert c.equations.nrows == 3

    def test_generators_vs_halfspaces_consistency(self):
        # set equality of both descriptions on sample points
        c = cone_from_generators([(2, 1, 0), (0, 1, 1)], [(1, 1, 1)], 3)
        rng = random.Random(5)
        for _ in range(100):
            p = tuple(rng.randint(-4, 4) for _ in range(3))
            by_h = c.contains(p)
            from tropfan.linalg import IntMatrix, cone_feasible
            by_v = cone_feasible(c.rays, c.lineality, p)
            assert by_h == by_v


small_vecs3 = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
    min_size=0, max_size=4)


class TestDoubleDescriptionFuzz:
    @settings(max_examples=60, deadline=None)
    @given(small_vecs3, small_vecs3)
    def test_generators_match_simplex_oracle(self, ray_list, lin_list):
        from tropfan.linalg import IntMatrix, cone_feasible
        rays = [r for r in ray_list if any(r)]
        lins = [l for l in lin_list if any(l)]
        c = cone_from_generators(rays, lins, 3)
        again = cone_from_generators(c.rays.columns(), c.lineality.columns(), 3)
        assert again == c
        ray_m = IntMatrix.from_columns(rays, 3)
        lin_m = IntMatrix.from_columns(lins, 3)
        rng = random.Random(hash((tuple(rays), tuple(lins))) & 0xFFFF)
        for _ in range(25):
            p = tuple(rng.randint(-6, 6) for _ in range(3))
            assert c.contains(p) == cone_feasible(ray_m, lin_m, p)

    @settings(max_examples=60, deadline=None)
    @given(small_vecs3, small_vecs3)
    def test_halfspaces_round_trip(self, ineq_list, eq_list):
        ineqs = [r for r in ineq_list if any(r)]
        eqs = [e for e in eq_list if any(e)]
        c = cone_from_halfspaces(ineqs, eqs, 3)
        again = cone_from_halfspaces(list(c.inequalities.entries),
                                     list(c.equations.entries), 3)
        assert again == c
        # every input constraint really holds on the computed generators
        gens = c.rays.columns()
        lins = c.lineality.columns()
        from tropfan.linalg import dot as ldot
        for a in ineqs:
            assert all(ldot(a, g) >= 0 for g in gens)
            assert all(ldot(a, l) == 0 for l in lins)
        for e in eqs:
            assert all(ldot(e, g) == 0 for g in gens)
            assert all(ldot(e, l) == 0 for l in lins)


class TestFaces:
    def test_quadrant_facets(self):
        c = cone_from_generators([(1, 0), (0, 1)], [], 2)
        fs = faces(c, 1)
        assert sorted(f.rays.columns() for f in fs) == [[(0, 1)], [(1, 0)]]

    def test_full_plane_has_no_proper_faces(self):
        assert faces(cone_from_halfspaces([], [], 2), 1) == []

    def test_simplicial_cone_has_three_facets(self):
        c = cone_from_generators([(1, 0, 1), (0, 1, 1), (0, 0, 1)], [], 3)
        fs = faces(c, 1)
        assert len(fs) == 3
        for f in fs:
            assert f.dim == c.dim - 1
            assert c.contains_cone(f)

    def test_bad_codim(self):
        c = cone_from_generators([(1, 0)], [], 2)
        with pytest.raises(BadCodimError):
            faces(c, 2)


def dd_facets(c):
    """Reference: every facet rebuilt from halfspaces by double description."""
    return [(cone_from_halfspaces(list(c.inequalities.entries),
                                  list(c.equations.entries) + [a],
                                  c.ambient_dim), a)
            for a in c.inequalities.entries]


def dd_faces(c, codim):
    layer = {(c.rays.entries, c.lineality.entries): c}
    for _ in range(codim):
        layer = {(f.rays.entries, f.lineality.entries): f
                 for cone in layer.values() for f, _ in dd_facets(cone)}
    return [layer[k] for k in sorted(layer)]


def assert_faces_match_dd(c):
    got = facets_with_normals(c)
    want = dd_facets(c)
    assert [a for _, a in got] == [a for _, a in want]
    for (f, _), (g, _) in zip(got, want):
        assert f.rays == g.rays
        assert f.lineality == g.lineality
        assert f.inequalities == g.inequalities
        assert f.equations == g.equations
        assert f.dim == g.dim
    every = []
    for k in range(c.dim + 1):
        layer = faces(c, k)
        assert layer == dd_faces(c, k)
        every += layer
    assert all_faces(c) == sorted(every, key=lambda f: (f.rays.entries,
                                                        f.lineality.entries))


small_vecs4 = st.lists(
    st.tuples(*[st.integers(-3, 3)] * 4), min_size=0, max_size=5)
small_lins4 = st.lists(
    st.tuples(*[st.integers(-3, 3)] * 4), min_size=0, max_size=2)


class TestFacesByIncidence:
    """Faces derived by incidence equal the double description reference,
    field by field, at every codimension."""

    @settings(max_examples=80, deadline=None)
    @given(small_vecs4, small_lins4)
    # pointed and full-dimensional; with lineality; lower-dimensional
    @example([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
              (1, 1, -1, 1)], [])
    @example([(1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0)], [(0, 0, 1, 1)])
    @example([(1, 2, 0, 0), (0, 1, 1, 0), (1, 0, 0, 0)], [])
    def test_from_generators(self, ray_list, lin_list):
        rays = [r for r in ray_list if any(r)]
        lins = [l for l in lin_list if any(l)]
        assert_faces_match_dd(cone_from_generators(rays, lins, 4))

    @settings(max_examples=80, deadline=None)
    @given(small_vecs4, small_lins4)
    # a pointed orthant; a wedge with a 2-dimensional lineality; a cone in
    # a hyperplane
    @example([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [])
    @example([(1, 0, 0, 0), (1, 1, 0, 0)], [])
    @example([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0)], [(1, -1, 0, 1)])
    def test_from_halfspaces(self, ineq_list, eq_list):
        ineqs = [r for r in ineq_list if any(r)]
        eqs = [e for e in eq_list if any(e)]
        assert_faces_match_dd(cone_from_halfspaces(ineqs, eqs, 4))

    @settings(max_examples=80, deadline=None)
    @given(small_vecs4, small_lins4, st.booleans())
    @example([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0)], [(1, -1, 0, 1)],
             False)
    def test_keys_match_the_built_facets(self, vecs, lins, from_generators):
        """Each key is the built facet's cone_key, and the normals come in
        facets_with_normals order."""
        make = cone_from_generators if from_generators else cone_from_halfspaces
        c = make([v for v in vecs if any(v)], [l for l in lins if any(l)], 4)
        keyed = facets_by_key(c)
        assert [a for _, a, _ in keyed] \
            == [a for _, a in facets_with_normals(c)]
        for key, _, build in keyed:
            assert key == cone_key(build())

    def test_shared_walk_derives_each_face_once(self):
        cones = [cone_from_generators(rays, [], 3) for rays in
                 ([(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                  [(1, 0, 0), (0, 1, 0), (-1, -1, 0)],
                  [(0, 0, 1), (0, 1, 0), (0, 0, -1)])]
        seen = {}
        walked = [f for c in cones for f in all_faces(c, seen)]
        union = {(f.rays.entries, f.lineality.entries): f
                 for c in cones for f in all_faces(c)}
        assert len(walked) == len(union) == len(seen)
        assert {(f.rays.entries, f.lineality.entries) for f in walked} \
            == set(union)
        assert all_faces(cones[0], seen) == []


class TestRelativeInterior:
    def test_quadrant(self):
        c = cone_from_generators([(1, 0), (0, 1)], [], 2)
        assert relative_interior_point(c) == (1, 1)

    def test_lineality_only(self):
        c = cone_from_generators([], [(1, -1)], 2)
        assert relative_interior_point(c) == (0, 0)

    def test_negative_ray(self):
        c = cone_from_generators([(-1, -1)], [], 2)
        assert relative_interior_point(c) == (-1, -1)

    def test_strictness(self):
        for c in [cone_from_generators([(1, 0), (0, 1), (1, 5)], [], 2),
                  cone_from_generators([(1, 0, 1), (0, 1, 1), (0, 0, 1)], [], 3),
                  cone_from_generators([(1, 1)], [(1, -1)], 2)]:
            p = relative_interior_point(c)
            assert c.relint_contains(p)


class TestCommonRefinement:
    def test_self_refinement(self):
        fan = line_fan()
        assert common_refinement(fan, fan) == fan

    def test_axes_meet_at_origin(self):
        fx, _ = fan_from_cones(2, [cone_from_generators([(1, 0)], [], 2),
                                   cone_from_generators([(-1, 0)], [], 2)])
        fy, _ = fan_from_cones(2, [cone_from_generators([(0, 1)], [], 2),
                                   cone_from_generators([(0, -1)], [], 2)])
        ref = common_refinement(fx, fy)
        assert ref.maximal_cones == ((),)
        assert fan_dim(ref) == 0

    def test_six_sectors(self):
        halves, _ = fan_from_cones(2, [cone_from_halfspaces([(1, -1)], [], 2),
                                       cone_from_halfspaces([(-1, 1)], [], 2)])
        ref = common_refinement(quadrant_fan(), halves)
        assert len(ref.maximal_cones) == 6

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            common_refinement(line_fan(), quadrant_fan().__class__(
                3, quadrant_fan().rays, quadrant_fan().lineality, ()))

    def test_support_is_intersection_sampled(self):
        f1 = quadrant_fan()
        halves, _ = fan_from_cones(2, [cone_from_halfspaces([(1, -1)], [], 2),
                                       cone_from_halfspaces([(-1, 1)], [], 2)])
        f2 = line_fan()
        ref = common_refinement(f1, f2)
        rng = random.Random(17)
        for _ in range(1000):
            w = (Fraction(rng.randint(-40, 40), rng.randint(1, 7)),
                 Fraction(rng.randint(-40, 40), rng.randint(1, 7)))
            assert support_contains(ref, w) == \
                (support_contains(f1, w) and support_contains(f2, w))


class TestSupport:
    def test_line_fan_members(self):
        fan = line_fan()
        assert support_contains(fan, (-3, -3))
        assert not support_contains(fan, (1, 2))
        assert support_contains(fan, (0, 0))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            support_contains(line_fan(), (1, 2, 3))


class TestFanAssembly:
    def test_contained_cones_dropped(self):
        big = cone_from_generators([(1, 0), (0, 1)], [], 2)
        small = cone_from_generators([(1, 0)], [], 2)
        fan, _ = fan_from_cones(2, [small, big])
        assert len(fan.maximal_cones) == 1
        assert fan_dim(fan) == 2

    def test_validate(self):
        assert validate_fan(line_fan())
        assert validate_fan(quadrant_fan())
        # overlapping, non-face intersection: not a fan
        c1 = cone_from_generators([(1, 0), (0, 1)], [], 2)
        c2 = cone_from_generators([(1, 1), (-1, 1)], [], 2)
        bad, _ = fan_from_cones(2, [c1, c2], drop_contained=False)
        assert not validate_fan(bad)

    def test_fans_keep_their_cones(self):
        c1 = cone_from_generators([(1, 0), (0, 1)], [], 2)
        c2 = cone_from_generators([(-1, -1)], [], 2)
        c3 = cone_from_generators([(1, 0)], [], 2)
        fan, kept = fan_from_cones(2, [c2, c3, c1])
        assert kept == [0, 2]
        assert fan.cones == (c2, c1)
        assert fan_cones(fan) == [reference_fan_cone(fan, i) for i in (0, 1)]
        assert fan_cone(fan, 0) is c2
        # the cones are fixed by the other fields, so equality ignores them
        bare = Fan(fan.ambient_dim, fan.rays, fan.lineality,
                   fan.maximal_cones, (c2, c1))
        assert bare == fan and hash(bare) == hash(fan)
        with pytest.raises(ValueError):
            Fan(fan.ambient_dim, fan.rays, fan.lineality, fan.maximal_cones)

    def test_purity(self):
        assert is_pure(line_fan())
        mixed, _ = fan_from_cones(
            2, [cone_from_generators([(1, 0), (0, 1)], [], 2),
                cone_from_generators([(-1, -1)], [], 2)])
        assert not is_pure(mixed)


class TestSlice:
    def test_edge_dual(self):
        # {w : w1 = w2 <= w3} sliced at w1 = 0 becomes the ray (0, 1)
        c = cone_from_halfspaces([(-1, 0, 1)], [(1, -1, 0)], 3)
        s = slice_first_coordinate(c)
        assert s.ambient_dim == 2
        assert s.rays.columns() == [(0, 1)]
        assert s.lineality.ncols == 0

    def test_membership_transfers(self):
        c = cone_from_generators([(1, 2, 0), (0, 1, 1)], [(1, 1, 1)], 3)
        s = slice_first_coordinate(c)
        rng = random.Random(3)
        for _ in range(200):
            w = tuple(rng.randint(-5, 5) for _ in range(2))
            assert s.contains(w) == c.contains((0,) + w)


class TestIntersect:
    def test_quadrant_halfplane(self):
        q = cone_from_generators([(1, 0), (0, 1)], [], 2)
        h = cone_from_halfspaces([(-1, 1)], [], 2)
        meet = intersect(q, h)
        assert meet.rays.columns() == [(0, 1), (1, 1)]

    def test_lineality_intersection(self):
        a = cone_from_generators([], [(1, 0), (0, 1)], 2)
        b = cone_from_generators([(1, 1)], [(1, -1)], 2)
        meet = intersect(a, b)
        assert meet == b

    @settings(max_examples=80, deadline=None)
    @given(small_vecs4, small_lins4, small_vecs4, small_lins4, st.booleans())
    # two 3-dimensional cones that meet in a ray of each
    @example([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], [],
             [(1, 0, 0, 0), (-1, 1, 0, 0), (0, 0, -1, 0)], [], True)
    def test_keyed_intersection_matches_the_built_cone(
            self, vecs1, lins1, vecs2, lins2, from_generators):
        """The key and dimension, from the primal pass alone, are those of
        the cone that build() returns."""
        make = cone_from_generators if from_generators else cone_from_halfspaces
        c1 = make([v for v in vecs1 if any(v)], [l for l in lins1 if any(l)], 4)
        c2 = make([v for v in vecs2 if any(v)], [l for l in lins2 if any(l)], 4)
        key, dim, build = intersection_by_key(c1, c2)
        piece = build()
        assert key == cone_key(piece)
        assert dim == piece.dim
        assert piece == intersect(c1, c2)
