import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropfan.errors import BadCodimError, DimMismatchError
from tropfan.fans import (
    Fan,
    _dd,
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
    is_pure,
    negate_cone,
    relative_interior_point,
    slice_first_coordinate,
    support_contains,
)
from tropfan.linalg import IntMatrix, _echelon_kernel, dot, rational_rank

from oracles import (
    reference_cone_from_generators,
    reference_cone_from_halfspaces,
    reference_fan_cone,
    reference_cone_feasible,
    reference_negate_cone,
    relint_contains,
    validate_fan,
)

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
            assert_same_cone(again, c)
            via_h = cone_from_halfspaces(
                list(c.inequalities.entries), list(c.equations.entries), 2)
            assert_same_cone(via_h, c)

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
            by_v = reference_cone_feasible(c.rays, c.lineality, p)
            assert by_h == by_v


small_vecs3 = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
    min_size=0, max_size=4)


class TestDoubleDescriptionFuzz:
    @settings(max_examples=60, deadline=None)
    @given(small_vecs3, small_vecs3)
    def test_generators_match_simplex_oracle(self, ray_list, lin_list):
        rays = [r for r in ray_list if any(r)]
        lins = [l for l in lin_list if any(l)]
        c = cone_from_generators(rays, lins, 3)
        again = cone_from_generators(c.rays.columns(), c.lineality.columns(), 3)
        assert_same_cone(again, c)
        ray_m = IntMatrix.from_columns(rays, 3)
        lin_m = IntMatrix.from_columns(lins, 3)
        rng = random.Random(hash((tuple(rays), tuple(lins))) & 0xFFFF)
        for _ in range(25):
            p = tuple(rng.randint(-6, 6) for _ in range(3))
            assert c.contains(p) == reference_cone_feasible(ray_m, lin_m, p)

    @settings(max_examples=60, deadline=None)
    @given(small_vecs3, small_vecs3)
    def test_halfspaces_round_trip(self, ineq_list, eq_list):
        ineqs = [r for r in ineq_list if any(r)]
        eqs = [e for e in eq_list if any(e)]
        c = cone_from_halfspaces(ineqs, eqs, 3)
        again = cone_from_halfspaces(list(c.inequalities.entries),
                                     list(c.equations.entries), 3)
        assert_same_cone(again, c)
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


@st.composite
def redundant_rows(draw):
    """(n, rows, lineality_or_equation_rows) in Z^3 to Z^5, the rows padded
    with what a one-pass description must see through: duplicates, positive
    rescalings, negations (g and -g), zero rows, and rows that lie in the
    span of the second list."""
    n = draw(st.integers(3, 5))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    rows = draw(st.lists(vec, max_size=6))
    spans = draw(st.lists(vec, max_size=2))
    for _ in range(draw(st.integers(0, 3))):
        base = draw(st.sampled_from(rows + spans)) if rows + spans \
            else (0,) * n
        scale = draw(st.sampled_from([1, 2, 3, -1]))
        rows.append(tuple(scale * x for x in base))
    if draw(st.booleans()):
        rows.append((0,) * n)
    return n, draw(st.permutations(rows)), spans


def assert_same_cone(got, want):
    """Field by field: equality of cones reads only the V-description, and
    the H-description is derived on first read."""
    assert got.ambient_dim == want.ambient_dim
    assert got.rays == want.rays
    assert got.lineality == want.lineality
    assert got.inequalities == want.inequalities
    assert got.equations == want.equations
    assert got.dim == want.dim


def assert_same_cones(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_cone(g, w)


class TestOnePassMatchesTwoPasses:
    """One double description pass with incidences gives, field by field,
    the cone the two-pass reference (rank-test adjacency) gives."""

    @settings(max_examples=150, deadline=None)
    @given(redundant_rows())
    # a line from g and -g; generators inside the lineality; the origin
    @example((3, [(1, 0, 0), (-1, 0, 0)], []))
    @example((4, [(1, 1, 0, 0), (2, 2, 0, 0), (0, 0, 1, 0)],
              [(1, 1, 0, 0), (0, 0, 0, 1)]))
    @example((3, [(0, 0, 0)], []))
    # rayless: a linear space
    @example((5, [], [(1, 2, 0, 0, 1), (0, 1, 1, 0, 0)]))
    def test_from_generators(self, case):
        n, gens, lins = case
        assert_same_cone(cone_from_generators(gens, lins, n),
                         reference_cone_from_generators(gens, lins, n))

    @settings(max_examples=150, deadline=None)
    @given(redundant_rows())
    # a hyperplane from a and -a; a row implied by the equations; all space
    @example((3, [(1, 2, 0), (-1, -2, 0)], []))
    @example((4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0)], [(0, 0, 1, 0)]))
    @example((3, [], []))
    # a redundant row, a rescaled one and a zero row around an orthant
    @example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 3, 0),
                  (0, 0, 0)], []))
    def test_from_halfspaces(self, case):
        n, ineqs, eqs = case
        assert_same_cone(cone_from_halfspaces(ineqs, eqs, n),
                         reference_cone_from_halfspaces(ineqs, eqs, n))

    @settings(max_examples=150, deadline=None)
    @given(redundant_rows())
    @example((4, [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)],
              [(0, 0, 1, 1)]))
    def test_every_mask_bit_is_a_tight_row(self, case):
        n, ineqs, eqs = case
        rays, lin, masks = _dd(ineqs,
                               _echelon_kernel(IntMatrix.from_rows(eqs, n)))
        assert len(masks) == len(rays)
        for ray, mask in zip(rays, masks):
            assert mask >> len(ineqs) == 0
            assert [mask >> j & 1 for j in range(len(ineqs))] \
                == [int(dot(a, ray) == 0) for a in ineqs]
        for l in lin:
            assert all(dot(a, l) == 0 for a in list(ineqs) + list(eqs))


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
    """Reference: every facet rebuilt from halfspaces by the two-pass double
    description."""
    return [(reference_cone_from_halfspaces(list(c.inequalities.entries),
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
        assert_same_cones(layer, dd_faces(c, k))
        every += layer
    assert_same_cones(all_faces(c),
                      sorted(every, key=lambda f: (f.rays.entries,
                                                   f.lineality.entries)))


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
            assert relint_contains(c, p)


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
        assert_same_cones(fan_cones(fan),
                          [reference_fan_cone(fan, i) for i in (0, 1)])
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
        assert_same_cone(meet, b)

    @settings(max_examples=80, deadline=None)
    @given(small_vecs4, small_lins4, small_vecs4, small_lins4, st.booleans())
    # two 3-dimensional cones that meet in a ray of each
    @example([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], [],
             [(1, 0, 0, 0), (-1, 1, 0, 0), (0, 0, -1, 0)], [], True)
    def test_keyed_intersection_matches_the_built_cone(
            self, vecs1, lins1, vecs2, lins2, from_generators):
        """The key and dimension, fixed by the pass, are those of the cone
        the two-pass reference builds from the joint rows, and so is the
        H-description derived from the pass's incidences on first read."""
        make = cone_from_generators if from_generators else cone_from_halfspaces
        c1 = make([v for v in vecs1 if any(v)], [l for l in lins1 if any(l)], 4)
        c2 = make([v for v in vecs2 if any(v)], [l for l in lins2 if any(l)], 4)
        piece = intersect(c1, c2)
        want = reference_cone_from_halfspaces(
            c1.inequalities.entries + c2.inequalities.entries,
            c1.equations.entries + c2.equations.entries, 4)
        assert cone_key(piece) == cone_key(want)
        assert piece.dim == want.dim
        assert_same_cone(piece, want)
        assert piece == intersect(c1, c2)


def assert_early_stop_agrees(ineqs, eqs, n):
    """Asked for a cone full-dimensional in the kernel of eqs, the pass gives
    None exactly when the whole pass ends below the kernel's dimension, and
    otherwise the same cone, key, dimension and derived H-description."""
    whole = cone_from_halfspaces(ineqs, eqs, n)
    early = cone_from_halfspaces(ineqs, eqs, n, full=True)
    if whole.dim < n - rational_rank(list(eqs)):
        assert early is None
        return False
    assert_same_cone(early, whole)
    return True


newton_supports = st.integers(2, 4).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 3)] * n), min_size=2, max_size=6, unique=True))


class TestEarlyStop:
    """The pass that stops at the first dimension drop agrees with the whole
    pass, on the intersections of cone pairs and on the normal cones of
    Newton polytope vertex pairs, the two places that ask for it."""

    @settings(max_examples=80, deadline=None)
    @given(small_vecs4, small_lins4, small_vecs4, small_lins4, st.booleans())
    # two 3-dimensional cones that meet in a ray of each: below the kernel
    @example([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], [],
             [(1, 0, 0, 0), (-1, 1, 0, 0), (0, 0, -1, 0)], [], True)
    # two quadrants of one plane that overlap: full in the kernel
    @example([(1, 0, 0, 0), (0, 1, 0, 0)], [], [(1, 1, 0, 0), (0, 1, 0, 0)],
             [], True)
    def test_cone_pairs(self, vecs1, lins1, vecs2, lins2, from_generators):
        make = cone_from_generators if from_generators else cone_from_halfspaces
        c1 = make([v for v in vecs1 if any(v)], [l for l in lins1 if any(l)], 4)
        c2 = make([v for v in vecs2 if any(v)], [l for l in lins2 if any(l)], 4)
        ineqs = c1.inequalities.entries + c2.inequalities.entries
        eqs = c1.equations.entries + c2.equations.entries
        kept = assert_early_stop_agrees(ineqs, eqs, 4)
        early = intersect(c1, c2, full=True)
        assert (early is not None) == kept
        if kept:
            assert_same_cone(early, intersect(c1, c2))

    @settings(max_examples=60, deadline=None)
    @given(newton_supports)
    @example([(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_newton_vertex_pairs(self, support):
        from tropfan.polynomials import Polynomial, newton_polytope

        n = len(support[0])
        f = Polynomial(tuple("xyzw"[:n]), {e: 1 for e in support})
        vertices = newton_polytope(f)
        for i, vi in enumerate(vertices):
            rows = [tuple(u[k] - vi[k] for k in range(n)) for u in vertices]
            for vj in vertices[i + 1:]:
                assert_early_stop_agrees(
                    rows, [tuple(vi[k] - vj[k] for k in range(n))], n)

    def test_both_outcomes_occur_on_a_square(self):
        # the unit square's diagonals span no edge, its sides do
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        kept = []
        for i, vi in enumerate(square):
            rows = [tuple(u[k] - vi[k] for k in range(2)) for u in square]
            for vj in square[i + 1:]:
                kept.append(assert_early_stop_agrees(
                    rows, [tuple(vi[k] - vj[k] for k in range(2))], 2))
        assert kept == [True, False, True, True, False, True]


cones_in_2_to_4 = st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=5),
    st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=2),
    st.booleans()))


class TestGeneratorDimension:
    """cone_from_generators reads the dimension off its pass, as the
    ambient dimension less the number of equations it found; that is the
    rank of the generators."""

    @settings(max_examples=150, deadline=None)
    @given(cones_in_2_to_4)
    # no generators; repeated and dependent rays beside a lineality
    @example((3, [], [], True))
    @example((4, [(1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0)], [(0, 1, 0, 0)],
              True))
    def test_dimension_is_the_rank(self, case):
        n, vecs, lins, _ = case
        rays = [v for v in vecs if any(v)]
        lins = [l for l in lins if any(l)]
        c = cone_from_generators(rays, lins, n)
        assert c.dim == (rational_rank(rays + lins) if rays or lins else 0)


class TestNegateCone:
    """-c from the negated rays and facet rows equals the double description
    reference on the negated generators, field by field, the derived
    H-description included."""

    @settings(max_examples=150, deadline=None)
    @given(cones_in_2_to_4)
    # pointed; with a lineality; a linear space; the origin
    @example((3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)], [], True))
    @example((4, [(1, 0, 0, 0), (1, 1, 0, 0)], [(0, 0, 1, -1)], True))
    @example((2, [], [(1, 2)], True))
    @example((2, [], [], True))
    def test_matches_the_double_description(self, case):
        n, vecs, lins, from_generators = case
        make = cone_from_generators if from_generators else cone_from_halfspaces
        c = make([v for v in vecs if any(v)], [l for l in lins if any(l)], n)
        negated = negate_cone(c)
        assert_same_cone(negated, reference_negate_cone(c))
        assert_same_cone(negate_cone(negated), c)
