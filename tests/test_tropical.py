import random
from fractions import Fraction

import pytest

from tropfan.cycles import (
    TropicalCycle,
    cycle_dim,
    is_balanced,
    make_cycle,
    swap_convention,
)
from tropfan.errors import (
    ConventionMismatchError,
    DimMismatchError,
    MonomialHypersurfaceError,
    UnitIdealError,
    ZeroIdealError,
)
from tropfan.fans import (
    cone_from_generators,
    cone_from_halfspaces,
    fan_cones,
    fan_dim,
    fan_from_cones,
    support_contains,
)
from tropfan.groebner import TermOrder, reduced_groebner_basis
from tropfan.polynomials import homogenize, ideal, parse_polynomial
from tropfan.tropical import (
    is_tropical_basis,
    stable_intersection,
    tropical_evaluate,
    tropical_hypersurface,
    tropical_prevariety,
    tropical_variety,
)

from oracles import (
    multiplicity_at,
    optimum_attained_twice,
    reference_fan_cone,
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
        assert cycle_dim(c) == 2

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


class TestPrevariety:
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
        c = tropical_variety(ideal(XY, (P("x+y+1", XY),)), strategy="groebner")
        assert c.fan.rays.columns() == [(-1, -1), (0, 1), (1, 0)]
        assert c.fan.lineality.ncols == 0
        assert c.fan.maximal_cones == ((0,), (1,), (2,))
        assert c.multiplicities == (1, 1, 1)
        assert cycle_dim(c) == 1

    def test_line_and_quadric(self):
        spec = ideal(XYZ, (P("x+y+z", XYZ), P("x^2+y^2+z^2", XYZ)))
        c = tropical_variety(spec, strategy="groebner")
        assert isinstance(c, TropicalCycle)
        assert c.fan.rays.ncols == 0
        assert c.fan.lineality.columns() == [(1, 1, 1)]
        assert c.fan.maximal_cones == ((),)
        assert c.multiplicities == (2,)
        assert cycle_dim(c) == 1

    def test_binomial_lineality(self):
        c = tropical_variety(ideal(XY, (P("x*y-1", XY),)), strategy="groebner")
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
        assert cycle_dim(c) == -1

    def test_max_convention(self):
        spec = ideal(XY, (P("x+y+1", XY),))
        mx = tropical_variety(spec, convention="max")
        assert mx == swap_convention(tropical_variety(spec, convention="min"))

    def test_containment_chain_sampled(self):
        spec = ideal(XYZ, (P("x+y+z", XYZ), P("x^2+y^2+z^2", XYZ)))
        variety = tropical_variety(spec, strategy="groebner")
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
        variety = tropical_variety(spec, strategy="groebner")
        pre = tropical_prevariety(list(spec.generators))
        from tropfan.fans import relative_interior_point
        for c in fan_cones(variety.fan):
            w = relative_interior_point(c)
            assert support_contains(pre, w)
            for g in c.rays.columns():
                assert support_contains(pre, g)
            for l in c.lineality.columns():
                assert support_contains(pre, l)


class TestFaceWalk:
    """Tripwires: the face walk over a whole Gröbner fan keys the facets of
    each distinct face once and builds each face that is not a Gröbner cone
    once, by incidence; it runs no double description and reduces modulo
    lattices with no unimodular completion or inverse."""

    def walk(self, spec, monkeypatch, facet_counts):
        import tropfan.fans
        import tropfan.linalg
        import tropfan.tropical
        from tropfan.groebner import groebner_fan

        fan_data = groebner_fan(homogenize(spec))
        facet_counts.update(keyed=0, built=0)
        homes = {"cone_from_halfspaces": tropfan.fans,
                 "int_inverse": tropfan.linalg,
                 "hnf_completion": tropfan.linalg}
        calls = dict.fromkeys(homes, 0)
        for name, home in homes.items():
            original = getattr(home, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            # every module that bound the function, the defining one
            # included: hnf_completion looks int_inverse up in tropfan.linalg
            for module in (tropfan.linalg, tropfan.fans, tropfan.tropical):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        kept = tropfan.tropical._kept_faces(fan_data)
        assert calls == dict.fromkeys(homes, 0)
        return len(fan_data), dict(facet_counts), len(kept)

    def test_space_conic_derives_each_face_once(self, monkeypatch,
                                                facet_counts):
        from tropfan.corpus import PRIME_CORPUS

        entry = next(e for e in PRIME_CORPUS if e.name == "space_conic")
        assert self.walk(entry.ideal(), monkeypatch, facet_counts) \
            == (16, {"keyed": 55, "built": 39}, 5)

    def test_linear5_derives_each_face_once(self, monkeypatch, facet_counts):
        vs = tuple("abcde")
        spec = ideal(vs, (P("a+b+c+d+e", vs), P("a+2*b+3*c+5*d+7*e", vs)))
        assert self.walk(spec, monkeypatch, facet_counts) \
            == (10, {"keyed": 81, "built": 71}, 16)


# hypersurfaces in four and five variables whose cycles the CLI intersects
A4 = "x*y+z*w+x*z+y*w+x^2+w^2+y^2*z+1"
B4 = "x^2*y+y^2*z+z^2*w+w^2*x+x*y*z+y*z*w+1"
A5 = "a*b+c*d+e*a+b*c+d*e+a^2+e^2+1"
B5 = "a^2*b+b^2*c+c^2*d+d^2*e+e^2*a+a*b*c*d*e+1"
XYZW = ("x", "y", "z", "w")


def assert_fan_keeps_its_cones(fan):
    assert len(fan.cones) == fan.n_maximal()
    for i, cone in enumerate(fan_cones(fan)):
        assert cone == reference_fan_cone(fan, i)


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
                assert_fan_keeps_its_cones(tropical_variety(
                    entry.ideal(), convention, strategy="groebner").fan)

    def test_stable_intersections(self):
        a = tropical_hypersurface(P(A4, XYZW))
        b = tropical_hypersurface(P(B4, XYZW))
        assert_fan_keeps_its_cones(stable_intersection(a, b, seed=3).fan)
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
    double description passes (one keys a cone, a second builds it), the
    cones read from generators, and contains_cone calls."""

    @pytest.fixture
    def run(self, tmp_path, monkeypatch, capsys):
        import tropfan.cycles
        import tropfan.fans
        from tropfan.cli import main

        monkeypatch.chdir(tmp_path)
        counts = {"dd": 0, "from_generators": 0, "contains_cone": 0}

        def counted(key, original):
            def wrapper(*args):
                counts[key] += 1
                return original(*args)
            return wrapper

        monkeypatch.setattr(tropfan.fans, "_dd",
                            counted("dd", tropfan.fans._dd))
        generators = counted("from_generators",
                             tropfan.fans.cone_from_generators)
        for module in (tropfan.fans, tropfan.cycles):
            monkeypatch.setattr(module, "cone_from_generators", generators)
        monkeypatch.setattr(tropfan.fans.Cone, "contains_cone",
                            counted("contains_cone",
                                    tropfan.fans.Cone.contains_cone))

        def command(*argv):
            counts.update(dict.fromkeys(counts, 0))
            assert main(list(argv)) == 0
            capsys.readouterr()
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
        # 28 vertex pairs keyed, 20 of them cones of the hypersurface
        assert run("hypersurface", A4, "--vars", "x,y,z,w") \
            == {"dd": 48, "from_generators": 0, "contains_cone": 0}

    def test_stable_intersection_builds_each_piece_once(self, run):
        self.hypersurfaces(run, "A5", "B5")
        # 41 input cones read, 187 pieces keyed, 87 distinct cells built
        assert run("stable-intersection", "A5.json", "B5.json", "--seed", "0",
                   "--format", "json", "--out", "A5B5.json") \
            == {"dd": 2 * 41 + 187 + 87, "from_generators": 41,
                "contains_cone": 0}
        # 87 cones read, none rebuilt, no containment scan
        assert run("is-balanced", "A5B5.json") \
            == {"dd": 2 * 87, "from_generators": 87, "contains_cone": 0}

    def test_prevariety_builds_each_piece_once(self, tmp_path, run):
        (tmp_path / "A4B4.ideal").write_text(f"vars: x,y,z,w\n{A4}\n{B4}\n")
        # the two hypersurfaces (48 and 39 passes), then 20 x 18 pieces
        # keyed and 47 distinct ones built; the containment scans are those
        # of fan_from_cones dropping pieces inside others
        assert run("prevariety", "A4B4.ideal", "--format", "json") \
            == {"dd": 48 + 39 + 20 * 18 + 47, "from_generators": 0,
                "contains_cone": 1712}


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
            assert tropical_variety(spec, strategy="groebner") == \
                tropical_variety(spec, strategy="newton")


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
        c = tropical_variety(ideal(XYZ, (P("x^2+y^2+z^2", XYZ),)),
                             strategy="groebner")
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
            groebner_route = tropical_variety(spec, strategy="groebner")
            newton_route = tropical_variety(spec, strategy="newton")
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

    def test_linear_forms_true(self):
        assert is_tropical_basis([P("x+y", XYZ), P("y+z", XYZ)])


class TestStableIntersection:
    def test_line_times_conic(self):
        tl = tropical_variety(ideal(XYZ, (P("x+y+z", XYZ),)))
        tc = tropical_variety(ideal(XYZ, (P("x^2+y^2+z^2", XYZ),)))
        got = stable_intersection(tl, tc)
        assert got.fan.rays.ncols == 0
        assert got.fan.lineality.columns() == [(1, 1, 1)]
        assert got.fan.maximal_cones == ((),)
        assert got.multiplicities == (2,)
        assert cycle_dim(got) == 1

    def test_line_self_intersection(self):
        line = tropical_variety(ideal(XY, (P("x+y+1", XY),)))
        got = stable_intersection(line, line)
        assert got.fan.maximal_cones == ((),)
        assert got.fan.rays.ncols == 0
        assert got.fan.lineality.ncols == 0
        assert got.multiplicities == (1,)
        assert cycle_dim(got) == 0

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
        tl = tropical_variety(ideal(XYZ, (P("x+y+z", XYZ),)))
        tc = tropical_variety(ideal(XYZ, (P("x^2+y^2+z^2", XYZ),)))
        runs = {stable_intersection(tl, tc, seed=s) for s in (0, 1, 2, 99)}
        assert len(runs) == 1
        line = tropical_variety(ideal(XY, (P("x+y+1", XY),)))
        runs = {stable_intersection(line, line, seed=s) for s in (0, 5, 12)}
        assert len(runs) == 1

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
        assert cycle_dim(got) == 1
        assert got.fan.rays.columns() == [(-1, -1, -1), (0, 0, 1),
                                          (0, 1, 0), (1, 0, 0)]
        assert got.multiplicities == (1, 1, 1, 1)
        assert is_balanced(got)
        assert {stable_intersection(plane, plane, seed=s)
                for s in (1, 2, 3)} == {got}

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
            cycle = tropical_variety(spec, strategy="groebner")
            n = len(spec.variables)
            for _ in range(40):
                if rng.random() < 0.5:
                    w = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 4))
                              for _ in range(n))
                else:
                    w = tuple(Fraction(rng.choice([-2, -1, -1, 0, 0, 1, 1, 2]))
                              for _ in range(n))
                wh = (Fraction(0),) + w
                gb = reduced_groebner_basis(spec_h, TermOrder((wh,), "min"))
                direct = is_monomial_free(initial_ideal(gb, wh))
                assert support_contains(cycle.fan, w) == direct, (entry.name, w)


class TestTorusCurveCounts:
    # complete intersections whose torus points are unions of 1-parameter
    # subgroup translates: the cell is the diagonal line, the weight counts
    # the translates
    def test_diagonal_line(self):
        c = tropical_variety(ideal(XYZ, (P("x-y", XYZ), P("y-z", XYZ))),
                             strategy="groebner")
        assert c.fan.lineality.columns() == [(1, 1, 1)]
        assert c.fan.maximal_cones == ((),)
        assert c.multiplicities == (1,)
        assert is_balanced(c)

    def test_square_root_pair(self):
        c = tropical_variety(ideal(XYZ, (P("x^2-y^2", XYZ), P("y-z", XYZ))),
                             strategy="groebner")
        assert c.multiplicities == (2,)
        assert c.fan.lineality.columns() == [(1, 1, 1)]

    def test_cube_root_triple(self):
        c = tropical_variety(ideal(XYZ, (P("x^3-y^3", XYZ), P("y-z", XYZ))),
                             strategy="groebner")
        assert c.multiplicities == (3,)

    def test_plane_section_of_conic(self):
        c = tropical_variety(
            ideal(XYZ, (P("x-y", XYZ), P("x^2+y^2+z^2", XYZ))),
            strategy="groebner")
        assert c.multiplicities == (2,)
        assert is_balanced(c)

    def test_quadric_pair_three_lines(self):
        c = tropical_variety(
            ideal(XYZ, (P("x^2-y*z", XYZ), P("x*y-z^2", XYZ))),
            strategy="groebner")
        assert c.multiplicities == (3,)
        assert c.fan.lineality.columns() == [(1, 1, 1)]
        assert is_balanced(c)


class TestNonPureVariety:
    def test_plane_union_line_is_not_pure(self):
        # product of a plane ideal and a vertical-line ideal: the tropical
        # variety is a 2-dimensional fan plus one isolated downward ray
        from tropfan.errors import NotPureError
        g1 = P("(x+y+z+1)*(x-2)", XYZ)
        g2 = P("(x+y+z+1)*(y-3)", XYZ)
        c = tropical_variety(ideal(XYZ, (g1, g2)), strategy="groebner")
        assert isinstance(c, TropicalCycle)
        assert not c.pure
        dims = sorted({cone.dim for cone in fan_cones(c.fan)})
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
            c = tropical_variety(spec, strategy="groebner")
            assert is_balanced(c), texts
